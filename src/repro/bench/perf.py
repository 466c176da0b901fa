"""Performance-regression harness for the simulation hot path.

``python -m repro bench-perf`` times *real* (host) wall-clock runs of the
four paper workloads on the Magny-Cours preset, once engine-only and once
with the full profiler attached — each both with iteration memoization on
(the default configuration) and off (a zero memo budget) — and writes ``BENCH_perf.json`` with

* wall seconds per run (memo-on and memo-off),
* chunks/s and accesses/s throughput (the engine hot-path rates, memo on),
* the engine memo's hit/miss/eviction counters per run,
* the monitored-overhead percentage (host time, not simulated time),
* one monitored run with phase-adaptive extrapolation (``--extrapolate``):
  its wall seconds, ``extrap_speedup`` over the live monitored run,
  ``phase_coverage_pct`` (iterations skipped), and the declared ``epsilon``.

``overhead_pct`` is the monitored memo-on wall against the *uncached*
engine-only wall: the cost of profiling the workload relative to what the
engine must compute without its iteration cache — the figure directly
comparable to pre-memoization baselines. ``overhead_vs_memo_pct`` is the
same monitored wall against the memoized engine-only wall (the in-config
ratio; much larger because the cached engine base is a few times
smaller).

When a baseline JSON (same schema) is available — by default
``results/BENCH_perf_baseline.json``, else the previous output file —
the run is compared against it: any engine-only or monitored chunks/s
throughput that drops by more than ``--threshold`` (default 20%) is
reported as a regression and the process exits non-zero, so CI can keep
the "low runtime overhead" claim honest as the engine evolves.

Baselines only count when they were recorded with the same configuration
(preset, threads, mechanism, period, scale) — comparing throughput
across different run shapes is meaningless, so mismatched files are
ignored with a notice.

``--check`` is the CI smoke mode: inputs scaled to ``SMOKE_SCALE``,
compared against the committed ``results/BENCH_perf_smoke_baseline.json``
at a laxer threshold (shared CI hosts are noisy), exiting non-zero on
regression.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import obs
from repro.bench.harness import fmt_table
from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.sampling import create_mechanism

SCHEMA = "bench-perf/v1"

#: Wall-clock source for every timing site in this module. Tests inject
#: a deterministic counter here (``perf._clock = fake``) so check-mode
#: assertions never ratio real sub-10ms walls — the flake class this
#: kills is "smoke run finished in 4ms vs 9ms, spurious 2x regression".
_clock = time.perf_counter

#: Walls shorter than this are too close to scheduler/timer noise for a
#: throughput ratio to mean anything; ``compare`` reports them as
#: unreliable instead of gating on them.
MIN_RELIABLE_WALL_S = 0.05

#: Default output path (repo root by convention).
DEFAULT_OUTPUT = "BENCH_perf.json"

#: Default baseline recorded before hot-path changes land.
DEFAULT_BASELINE = "results/BENCH_perf_baseline.json"

#: Relative chunks/s drop tolerated before the run counts as a regression.
DEFAULT_THRESHOLD = 0.2

#: ``--check`` smoke mode: scaled-down inputs against a dedicated
#: committed baseline, with a laxer threshold because CI hosts are noisy.
SMOKE_OUTPUT = "BENCH_perf_smoke.json"
SMOKE_BASELINE = "results/BENCH_perf_smoke_baseline.json"
SMOKE_SCALE = 0.1
SMOKE_THRESHOLD = 0.5

#: Maximum estimated cost of *disabled* telemetry tolerated by ``--check``
#: (fraction of a small engine-only run's wall time, in percent).
NOOP_OVERHEAD_LIMIT_PCT = 5.0

#: Maximum estimated cost of the *enabled* metrics plane tolerated by
#: ``--check`` (percent of the monitored run's wall time).
METRICS_OVERHEAD_LIMIT_PCT = 2.0

#: Baseline keys that must match the requested run configuration —
#: comparing throughputs across different presets/sizes is meaningless.
CONFIG_KEYS = ("preset", "threads", "mechanism", "period", "scale")


def default_workloads(scale: float = 1.0) -> dict:
    """The four paper workloads at Table-2 sizes, scaled by ``scale``."""
    from repro.workloads import AMG2006, Blackscholes, Lulesh, UMT2013

    def n(value: int, floor: int) -> int:
        return max(int(value * scale), floor)

    return {
        "lulesh": lambda: Lulesh(n_nodes=n(600_000, 8_000), steps=6),
        "amg": lambda: AMG2006(n_rows=n(200_000, 4_000), solve_iters=12),
        "blackscholes": lambda: Blackscholes(
            n_options=n(20_000, 500), steps=50
        ),
        "umt": lambda: UMT2013(
            plane_elems=n(8_192, 512), n_angles=n(96, 8), sweeps=5
        ),
    }


def _rates(wall_s: float, result) -> dict:
    return {
        "wall_s": wall_s,
        "chunks": result.total_chunks,
        "accesses": result.total_accesses,
        "chunks_per_s": result.total_chunks / wall_s if wall_s > 0 else 0.0,
        "accesses_per_s": (
            result.total_accesses / wall_s if wall_s > 0 else 0.0
        ),
    }


def _timed_run(
    machine_factory, program_factory, threads, monitor=None, memoize=True,
    extrapolate=False,
):
    engine = ExecutionEngine(
        machine_factory(), program_factory(), threads, monitor=monitor,
        memoize=memoize, extrapolate=extrapolate,
    )
    t0 = _clock()
    result = engine.run()
    return _clock() - t0, result, engine


#: Repeats for the walls entering ``extrap_speedup``: the monitored and
#: extrapolated runs are a few hundred ms each, where one scheduler
#: hiccup swings their ratio across the 1.0x line.
SPEEDUP_REPEATS = 3


def _best_of(
    repeats, machine_factory, program_factory, threads,
    monitor_factory=None, extrapolate=False,
):
    """Minimum wall over ``repeats`` fresh runs (min defeats scheduler
    noise). Simulated results are deterministic across repeats, so the
    last run's result and engine serve for stats and reports."""
    best_wall = None
    for _ in range(repeats):
        wall, result, engine = _timed_run(
            machine_factory, program_factory, threads,
            monitor=monitor_factory() if monitor_factory else None,
            extrapolate=extrapolate,
        )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return best_wall, result, engine


def _memo_stats(engine) -> dict:
    """The engine memo's counters for the results JSON.

    A zero-budget run (memo off) reports zeros: its transient builds are
    neither hits nor misses.
    """
    stats = engine.memo.stats()
    return {
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
        "record_bytes": stats["record_bytes"],
    }


def _traced_breakdown(machine_factory, factory, threads, mechanism, period):
    """One extra monitored run under a private enabled tracer; returns the
    per-phase self-time breakdown plus that run's wall seconds."""
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        wall_s, _, _ = _timed_run(
            machine_factory, factory, threads,
            monitor=NumaProfiler(create_mechanism(mechanism, period)),
        )
        tracer.disable()
    finally:
        obs.set_tracer(old)
    pb = obs.phase_breakdown(tracer)
    return {
        "wall_s": wall_s,
        "by_category": pb["by_category"],
        "by_span": pb["by_span"],
        "total_self_s": pb["total_self_s"],
        "coverage": pb["total_self_s"] / wall_s if wall_s else 0.0,
    }


def run_perf(
    *,
    preset: str = "magny_cours",
    threads: int = 48,
    mechanism: str = "IBS",
    period: int = 4096,
    scale: float = 1.0,
    workloads: dict | None = None,
    phase_breakdown: bool = False,
    metrics: bool = False,
) -> dict:
    """Measure all workloads; return the ``bench-perf/v1`` document.

    With ``phase_breakdown`` each workload gets one extra monitored run
    under an enabled tracer, and per-phase (span category) self-times are
    recorded alongside the throughput numbers. With ``metrics`` each
    workload gets one extra monitored run with the metrics plane
    recording, and its estimated overhead is recorded (gated by
    ``--check`` against :data:`METRICS_OVERHEAD_LIMIT_PCT`).
    """
    machine_factory = presets.PRESETS[preset]
    workloads = workloads or default_workloads(scale)

    doc: dict = {
        "schema": SCHEMA,
        "preset": preset,
        "threads": threads,
        "mechanism": mechanism,
        "period": period,
        "scale": scale,
        "workloads": {},
    }
    tot = {
        "engine_only": {"wall_s": 0.0, "chunks": 0, "accesses": 0},
        "monitored": {"wall_s": 0.0, "chunks": 0, "accesses": 0},
        "extrap": {"wall_s": 0.0, "chunks": 0, "accesses": 0},
        "engine_only_no_memo": {"wall_s": 0.0},
        "monitored_no_memo": {"wall_s": 0.0},
    }
    phase_iters = phase_skipped = 0
    phase_eps = 0.0
    for name, factory in workloads.items():
        base_nm_s, _, _ = _timed_run(
            machine_factory, factory, threads, memoize=False
        )
        base_s, base_res, base_eng = _timed_run(
            machine_factory, factory, threads
        )
        mon_nm_s, _, _ = _timed_run(
            machine_factory, factory, threads,
            monitor=NumaProfiler(create_mechanism(mechanism, period)),
            memoize=False,
        )
        mon_s, mon_res, mon_eng = _best_of(
            SPEEDUP_REPEATS, machine_factory, factory, threads,
            monitor_factory=lambda: NumaProfiler(
                create_mechanism(mechanism, period)
            ),
        )
        ext_s, ext_res, ext_eng = _best_of(
            SPEEDUP_REPEATS, machine_factory, factory, threads,
            monitor_factory=lambda: NumaProfiler(
                create_mechanism(mechanism, period)
            ),
            extrapolate=True,
        )
        report = ext_eng.phase_report or {}
        entry = {
            "engine_only": _rates(base_s, base_res),
            "monitored": _rates(mon_s, mon_res),
            "extrap": dict(
                _rates(ext_s, ext_res),
                extrap_speedup=mon_s / ext_s if ext_s > 0 else 0.0,
                phase_coverage_pct=report.get("coverage_pct", 0.0),
                epsilon=report.get("epsilon", 0.0),
                phase_disarms=report.get("disarms", 0),
                phase_coverage_by_region={
                    rname: {
                        "coverage_pct": r.get("coverage_pct", 0.0),
                        "disarms": r.get("disarms", 0),
                        "breaks": r.get("breaks", 0),
                    }
                    for rname, r in report.get("regions", {}).items()
                },
            ),
            "engine_only_no_memo": {"wall_s": base_nm_s},
            "monitored_no_memo": {"wall_s": mon_nm_s},
            "memo": {
                "engine_only": _memo_stats(base_eng),
                "monitored": _memo_stats(mon_eng),
            },
        }
        entry["engine_only"]["memo_speedup"] = (
            base_nm_s / base_s if base_s > 0 else 0.0
        )
        entry["monitored"]["overhead_pct"] = (
            (mon_s / base_nm_s - 1.0) * 100.0 if base_nm_s > 0 else 0.0
        )
        entry["monitored"]["overhead_vs_memo_pct"] = (
            (mon_s / base_s - 1.0) * 100.0 if base_s > 0 else 0.0
        )
        tot["engine_only_no_memo"]["wall_s"] += base_nm_s
        tot["monitored_no_memo"]["wall_s"] += mon_nm_s
        memo_tot = tot.setdefault(
            "memo", {"hits": 0, "misses": 0, "evictions": 0}
        )
        for mode_stats in entry["memo"].values():
            for key in ("hits", "misses", "evictions"):
                memo_tot[key] += mode_stats[key]
        if phase_breakdown:
            entry["phase_breakdown"] = _traced_breakdown(
                machine_factory, factory, threads, mechanism, period
            )
        if metrics:
            entry["metrics"] = measure_metrics_overhead(
                machine_factory, factory, threads, mechanism, period,
                mon_wall_s=mon_s,
            )
        doc["workloads"][name] = entry
        phase_iters += report.get("iterations", 0)
        phase_skipped += (
            report.get("extrapolated_exact", 0)
            + report.get("extrapolated_eps", 0)
        )
        phase_eps = max(phase_eps, report.get("epsilon", 0.0))
        for mode, (wall, res) in (
            ("engine_only", (base_s, base_res)),
            ("monitored", (mon_s, mon_res)),
            ("extrap", (ext_s, ext_res)),
        ):
            tot[mode]["wall_s"] += wall
            tot[mode]["chunks"] += res.total_chunks
            tot[mode]["accesses"] += res.total_accesses

    for mode in ("engine_only", "monitored", "extrap"):
        wall = tot[mode]["wall_s"]
        tot[mode]["chunks_per_s"] = tot[mode]["chunks"] / wall if wall else 0.0
        tot[mode]["accesses_per_s"] = (
            tot[mode]["accesses"] / wall if wall else 0.0
        )
    tot["monitored_overhead_pct"] = (
        (tot["monitored"]["wall_s"] / tot["engine_only_no_memo"]["wall_s"]
         - 1.0) * 100.0
        if tot["engine_only_no_memo"]["wall_s"]
        else 0.0
    )
    tot["monitored_overhead_vs_memo_pct"] = (
        (tot["monitored"]["wall_s"] / tot["engine_only"]["wall_s"] - 1.0)
        * 100.0
        if tot["engine_only"]["wall_s"]
        else 0.0
    )
    tot["extrap"]["extrap_speedup"] = (
        tot["monitored"]["wall_s"] / tot["extrap"]["wall_s"]
        if tot["extrap"]["wall_s"]
        else 0.0
    )
    tot["extrap"]["phase_coverage_pct"] = (
        100.0 * phase_skipped / phase_iters if phase_iters else 0.0
    )
    tot["extrap"]["epsilon"] = phase_eps
    if phase_breakdown:
        agg: dict[str, float] = {}
        pb_wall = 0.0
        for entry in doc["workloads"].values():
            pb = entry["phase_breakdown"]
            pb_wall += pb["wall_s"]
            for cat, secs in pb["by_category"].items():
                agg[cat] = agg.get(cat, 0.0) + secs
        tot["phase_breakdown"] = {
            "wall_s": pb_wall,
            "by_category": agg,
            "total_self_s": sum(agg.values()),
            "coverage": sum(agg.values()) / pb_wall if pb_wall else 0.0,
        }
    if metrics:
        entries = [e["metrics"] for e in doc["workloads"].values()]
        est_s = sum(e["estimated_overhead_s"] for e in entries)
        mon_wall = tot["monitored"]["wall_s"]
        tot["metrics"] = {
            "wall_s": sum(e["wall_s"] for e in entries),
            "n_samples": sum(e["n_samples"] for e in entries),
            "estimated_overhead_s": est_s,
            "estimated_overhead_pct": (
                100.0 * est_s / mon_wall if mon_wall else 0.0
            ),
            "limit_pct": METRICS_OVERHEAD_LIMIT_PCT,
        }
    doc["totals"] = tot
    return doc


def measure_noop_overhead(
    *,
    preset: str = "generic",
    threads: int = 8,
    scale: float = 0.05,
    repeats: int = 3,
    bench_loops: int = 200_000,
) -> dict:
    """Estimate what disabled telemetry costs an engine-only run.

    There is no un-instrumented build to race against, so the estimate is
    constructive: run a small workload under a :class:`~repro.obs.tracer.
    CountingTracer` to count how many instrumentation sites actually fire,
    microbenchmark the disabled per-site cost (a module-global fetch plus
    an ``enabled`` test — exactly what every guarded hot path executes),
    and compare their product against the run's wall time. The site count
    is taken from the *enabled* path, which touches strictly more calls
    than the disabled one, so the estimate errs high.
    """
    from repro.workloads import PartitionedSweep

    machine_factory = presets.PRESETS[preset]
    n_elems = max(int(400_000 * scale), 8_000)

    def run() -> float:
        wall_s, _, _ = _timed_run(
            machine_factory, lambda: PartitionedSweep(n_elems=n_elems),
            threads,
        )
        return wall_s

    run()  # warm-up (imports, allocator pools)
    wall_s = min(run() for _ in range(repeats))

    counter = obs.CountingTracer()
    old = obs.set_tracer(counter)
    try:
        run()
    finally:
        obs.set_tracer(old)

    t0 = _clock()
    for _ in range(bench_loops):
        tr = obs.TRACER
        if tr.enabled:  # pragma: no cover - tracer is disabled here
            pass
    per_site_s = (_clock() - t0) / bench_loops

    estimated_s = counter.n_calls * per_site_s
    return {
        "wall_s": wall_s,
        "instrumentation_sites": int(counter.n_calls),
        "per_site_s": per_site_s,
        "estimated_overhead_s": estimated_s,
        "overhead_pct": 100.0 * estimated_s / wall_s if wall_s else 0.0,
    }


def measure_metrics_overhead(
    machine_factory, factory, threads, mechanism, period,
    *,
    mon_wall_s: float,
    bench_loops: int = 2000,
) -> dict:
    """Estimate what the enabled metrics plane costs a monitored run.

    One extra monitored run under a private enabled tracer with a
    :class:`~repro.obs.timeseries.MetricsRecorder` attached yields the
    run's real sample count; the per-sample cost (snapshotting counters,
    gauges, and engine values into the ring, deriving rates) is
    microbenchmarked against that tracer's real counter/gauge
    population. The gate compares the constructive product
    ``n_samples x per_sample_s`` against the plain monitored wall — the
    measured wall delta is recorded too, but only as information: at
    smoke scales on shared CI hosts it is dominated by noise.
    """
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        tracer.metrics = obs.MetricsRecorder()
        wall_s, _, _ = _timed_run(
            machine_factory, factory, threads,
            monitor=NumaProfiler(create_mechanism(mechanism, period)),
        )
        n_samples = tracer.metrics.n_total
        bench = obs.MetricsRecorder()
        values = {
            "engine.chunks": 0.0,
            "engine.accesses": 0.0,
            "engine.instructions": 0.0,
        }
        t0 = _clock()
        for i in range(bench_loops):
            values["engine.chunks"] = float(i)
            bench.sample(
                tracer, flags=obs.FLAG_ITERATION, region="bench",
                iteration=i, values=values,
            )
        per_sample_s = (_clock() - t0) / bench_loops
    finally:
        obs.set_tracer(old)
    estimated_s = n_samples * per_sample_s
    return {
        "wall_s": wall_s,
        "n_samples": int(n_samples),
        "per_sample_s": per_sample_s,
        "estimated_overhead_s": estimated_s,
        "estimated_overhead_pct": (
            100.0 * estimated_s / mon_wall_s if mon_wall_s else 0.0
        ),
        "measured_delta_pct": (
            (wall_s / mon_wall_s - 1.0) * 100.0 if mon_wall_s else 0.0
        ),
    }


#: Worker counts measured by ``--workers-sweep``.
SWEEP_WORKERS = (2, 4)

#: Workloads measured by ``--workers-sweep`` (the two Section-8 case
#: studies with the largest monitored runtimes).
SWEEP_WORKLOADS = ("lulesh", "amg")


def run_workers_sweep(
    *,
    preset: str = "magny_cours",
    threads: int = 48,
    mechanism: str = "IBS",
    period: int = 4096,
    scale: float = 1.0,
    workers: tuple[int, ...] = SWEEP_WORKERS,
    workload_names: tuple[str, ...] = SWEEP_WORKLOADS,
) -> dict:
    """Monitored-run throughput vs. worker count (sharded execution).

    Times the serial monitored run and one sharded run per worker count
    for each workload — each once live and once with phase-adaptive
    extrapolation (``*_extrap`` entries, same schema) — recording wall
    seconds, chunks/s, and the speedup over the matching serial run. ``host_cpus`` is recorded alongside because the sweep
    measures *host* wall time: sharding cannot beat serial on a
    single-core host (the workers time-slice one CPU and pay IPC on
    top), so the numbers are only meaningful relative to that field.
    """
    import os

    from repro.parallel import ParallelEngine, sharding_supported

    machine_factory = presets.PRESETS[preset]
    workloads = default_workloads(scale)
    host_cpus = os.cpu_count() or 1
    underprovisioned = host_cpus < max(workers, default=0)
    sweep: dict = {
        "host_cpus": host_cpus,
        "sharding_supported": sharding_supported(),
        "workers": list(workers),
        "underprovisioned": underprovisioned,
        "workloads": {},
    }
    if underprovisioned:
        obs.get_logger("bench").warning(
            "workers sweep is underprovisioned: host has %d CPU(s) but the "
            "sweep runs up to %d workers — speedups below 1x reflect "
            "time-slicing plus IPC, not sharding overhead",
            host_cpus, max(workers),
        )
    if not sharding_supported():
        return sweep
    for name in workload_names:
        factory = workloads[name]
        serial_s, serial_res, _ = _timed_run(
            machine_factory, factory, threads,
            monitor=NumaProfiler(create_mechanism(mechanism, period)),
        )
        serial_x_s, serial_x_res, _ = _timed_run(
            machine_factory, factory, threads,
            monitor=NumaProfiler(create_mechanism(mechanism, period)),
            extrapolate=True,
        )
        entry = {
            "serial": _rates(serial_s, serial_res),
            "serial_extrap": _rates(serial_x_s, serial_x_res),
        }
        for n in workers:
            for suffix, extrapolate, ref_s in (
                ("", False, serial_s),
                ("_extrap", True, serial_x_s),
            ):
                par = ParallelEngine(
                    machine_factory, factory, threads, n_workers=n,
                    monitor_factory=lambda: NumaProfiler(
                        create_mechanism(mechanism, period)
                    ),
                    force_sharded=True,
                    extrapolate=extrapolate,
                )
                t0 = _clock()
                result = par.run()
                wall_s = _clock() - t0
                entry[f"workers_{n}{suffix}"] = dict(
                    _rates(wall_s, result),
                    speedup_vs_serial=ref_s / wall_s if wall_s else 0.0,
                )
        sweep["workloads"][name] = entry
    return sweep


#: Workloads measured by ``--autotune`` (the two case studies the
#: closed loop's acceptance criteria name).
AUTOTUNE_WORKLOADS = ("lulesh", "amg")


def run_autotune_bench(
    *,
    preset: str = "magny_cours",
    threads: int = 48,
    mechanism: str = "IBS",
    period: int = 4096,
    scale: float = 1.0,
    workload_names: tuple[str, ...] = AUTOTUNE_WORKLOADS,
) -> dict:
    """Closed-loop autotune pass: baseline vs autotuned simulated walls.

    Runs :func:`repro.optim.autotune.autotune` per workload and records
    the profiling-window (baseline) and re-verified (autotuned) simulated
    wall seconds, the before/after ``lpi_NUMA`` and remote sampled
    fraction, the migration log, and the host seconds the whole loop
    took — the figure the "does closing the loop pay" question needs.

    At smoke scales the working set turns cache-resident after the cold
    iterations, so the simulated wall may not move even though the
    sampled remote fraction does (the cache hides post-migration DRAM
    traffic); wall speedups need sizes that exceed the cache.
    """
    from repro.optim.autotune import AutotuneConfig, autotune
    from repro.spec import RunSpec

    bench: dict = {"workloads": {}}
    for name in workload_names:
        cfg = AutotuneConfig(RunSpec(
            name, scale=scale, machine=preset, threads=threads,
            mechanism=mechanism, period=period,
        ))
        t0 = _clock()
        report = autotune(cfg)
        host_s = _clock() - t0
        bench["workloads"][name] = {
            "host_s": host_s,
            "baseline_wall_s": report.wall_seconds_before,
            "autotuned_wall_s": report.wall_seconds_after,
            "sim_speedup": (
                report.wall_seconds_before / report.wall_seconds_after
                if report.wall_seconds_after else 0.0
            ),
            "lpi_before": report.lpi_before,
            "lpi_after": report.lpi_after,
            "remote_before": report.remote_before,
            "remote_after": report.remote_after,
            "migrations_applied": sum(1 for a in report.applied if a["ok"]),
            "migrations_failed": sum(
                1 for a in report.applied if not a["ok"]
            ),
            "improved": report.improved,
        }
    return bench


def compare(current: dict, baseline: dict, threshold: float) -> dict:
    """Compare two ``bench-perf/v1`` documents by chunks/s throughput.

    Returns ``{"speedups": ..., "regressions": [...], "missing": [...],
    "unreliable": [...], "ok": bool}`` where a regression is any
    per-workload or total chunks/s that fell below ``(1 - threshold)``
    times the baseline value. Only keys present in *both* documents are
    compared — the schema grows fields over time (phase breakdowns,
    workers sweeps) and an older baseline must stay usable, so anything
    the baseline lacks is listed under ``"missing"`` instead of crashing
    or counting against the run.

    Ratios where either side's wall is under
    :data:`MIN_RELIABLE_WALL_S` are reported under ``"unreliable"``
    rather than gated: a few milliseconds of smoke run is scheduler
    noise, and ratio-ing two such walls manufactures regressions out of
    nothing (the historical bench-gate flake).
    """
    regressions: list[str] = []
    missing: list[str] = []
    unreliable: list[str] = []
    speedups: dict = {"workloads": {}, "totals": {}}

    def ratio(new: float, old) -> float | None:
        return new / old if old else None

    def judge(label: str, new_entry: dict, old_entry: dict) -> float | None:
        """Record the chunks/s ratio for one mode; gate only when both
        walls clear the reliability floor."""
        new = new_entry.get("chunks_per_s")
        if new is None:
            return None
        old = old_entry.get("chunks_per_s")
        r = ratio(new, old)
        if r is None:
            missing.append(f"{label}/chunks_per_s")
            return r
        walls = (new_entry.get("wall_s"), old_entry.get("wall_s"))
        low = [w for w in walls if w is not None and w < MIN_RELIABLE_WALL_S]
        if low:
            unreliable.append(
                f"{label}: unreliable: wall below floor "
                f"({min(low) * 1e3:.1f}ms < {MIN_RELIABLE_WALL_S * 1e3:.0f}ms"
                "); ratio not gated"
            )
        elif r < 1.0 - threshold:
            regressions.append(
                f"{label}: chunks/s fell to {r:.2f}x of baseline"
            )
        return r

    for mode in ("engine_only", "monitored", "extrap"):
        if mode not in current["totals"]:
            continue
        speedups["totals"][mode] = judge(
            f"totals/{mode}",
            current["totals"][mode],
            baseline.get("totals", {}).get(mode, {}),
        )
    for name, entry in current["workloads"].items():
        old_entry = baseline.get("workloads", {}).get(name)
        if old_entry is None:
            missing.append(f"workloads/{name}")
            continue
        speedups["workloads"][name] = {}
        for mode in ("engine_only", "monitored", "extrap"):
            if mode not in entry:
                continue
            speedups["workloads"][name][mode] = judge(
                f"workloads/{name}/{mode}",
                entry[mode], old_entry.get(mode, {}),
            )
    return {
        "threshold": threshold,
        "speedups": speedups,
        "regressions": regressions,
        "missing": sorted(set(missing)),
        "unreliable": unreliable,
        "ok": not regressions,
    }


def missing_warnings(missing: list[str]) -> list[str]:
    """Collapse missing-baseline-key warnings for printing.

    A baseline that predates a metric lacks the same
    ``workloads/<name>/<suffix>`` key for every workload; warn once per
    suffix (naming the workload count) instead of once per workload.
    Non-workload keys (``totals/...``) pass through one line each.
    """
    by_suffix: dict[str, list[str]] = {}
    lines: list[str] = []
    for key in sorted(set(missing)):
        parts = key.split("/")
        if parts[0] == "workloads" and len(parts) > 2:
            by_suffix.setdefault("/".join(parts[2:]), []).append(parts[1])
        else:
            lines.append(
                f"  warning: baseline lacks {key}; comparison skipped"
            )
    for suffix in sorted(by_suffix):
        names = sorted(by_suffix[suffix])
        if len(names) == 1:
            lines.append(
                f"  warning: baseline lacks workloads/{names[0]}/{suffix}; "
                "comparison skipped"
            )
        else:
            lines.append(
                f"  warning: baseline lacks {suffix} ({len(names)} "
                f"workloads: {', '.join(names)}); comparison skipped"
            )
    return lines


def render(doc: dict) -> str:
    """Paper-style fixed-width table for one bench-perf document."""
    rows = []

    def memo_cell(memo: dict | None) -> str:
        if not memo:
            return "-"
        hits = sum(m["hits"] for m in memo.values())
        misses = sum(m["misses"] for m in memo.values())
        return f"{hits}/{misses}"

    def extrap_cells(extrap: dict | None) -> list[str]:
        if not extrap:
            return ["-", "-"]
        return [
            f"{extrap['wall_s']:.2f}s ({extrap['extrap_speedup']:.2f}x)",
            f"{extrap['phase_coverage_pct']:.0f}%"
            + (f" e={extrap['epsilon']:.1g}" if extrap["epsilon"] else ""),
        ]

    for name, entry in doc["workloads"].items():
        eng, mon = entry["engine_only"], entry["monitored"]
        no_memo = entry.get("engine_only_no_memo", {})
        rows.append([
            name,
            f"{eng['wall_s']:.2f}s",
            f"{eng['chunks_per_s']:,.0f}",
            f"{no_memo['wall_s']:.2f}s" if no_memo else "-",
            f"{mon['wall_s']:.2f}s",
            f"{mon['overhead_pct']:+.0f}%",
            *extrap_cells(entry.get("extrap")),
            memo_cell(entry.get("memo")),
        ])
    tot = doc["totals"]
    memo_tot = tot.get("memo")
    rows.append([
        "TOTAL",
        f"{tot['engine_only']['wall_s']:.2f}s",
        f"{tot['engine_only']['chunks_per_s']:,.0f}",
        f"{tot['engine_only_no_memo']['wall_s']:.2f}s"
        if "engine_only_no_memo" in tot else "-",
        f"{tot['monitored']['wall_s']:.2f}s",
        f"{tot['monitored_overhead_pct']:+.0f}%",
        *extrap_cells(tot.get("extrap")),
        f"{memo_tot['hits']}/{memo_tot['misses']}" if memo_tot else "-",
    ])
    table = fmt_table(
        ["workload", "engine s", "chunks/s", "no-memo s", "monitored s",
         "overhead", "extrap s", "phase cov", "memo h/m"],
        rows,
        title=f"bench-perf — {doc['preset']}, {doc['threads']} threads, "
        f"{doc['mechanism']} period {doc['period']} (overhead vs the "
        "uncached engine wall)",
    )
    pb_tot = doc["totals"].get("phase_breakdown")
    if pb_tot:
        pb_rows = []
        cats = sorted(
            pb_tot["by_category"], key=pb_tot["by_category"].get,
            reverse=True,
        )
        for cat in cats:
            secs = pb_tot["by_category"][cat]
            pb_rows.append([
                cat,
                f"{secs:.3f}s",
                f"{secs / pb_tot['wall_s']:.1%}" if pb_tot["wall_s"] else "-",
            ])
        pb_rows.append([
            "(total self)",
            f"{pb_tot['total_self_s']:.3f}s",
            f"{pb_tot['coverage']:.1%} of {pb_tot['wall_s']:.2f}s wall",
        ])
        table += "\n\n" + fmt_table(
            ["phase", "self time", "share of wall"],
            pb_rows,
            title="phase breakdown — traced monitored runs",
        )
    at = doc.get("autotune")
    if at and at.get("workloads"):
        at_rows = []
        for name, entry in at["workloads"].items():
            def pct(v):
                return f"{v:.1%}" if v is not None else "-"

            def lpi(v):
                return f"{v:.3f}" if v is not None else "-"

            at_rows.append([
                name,
                f"{entry['baseline_wall_s'] * 1e3:.2f}ms",
                f"{entry['autotuned_wall_s'] * 1e3:.2f}ms",
                f"{entry['sim_speedup']:.2f}x",
                f"{lpi(entry['lpi_before'])}->{lpi(entry['lpi_after'])}",
                f"{pct(entry['remote_before'])}->{pct(entry['remote_after'])}",
                f"{entry['migrations_applied']}"
                + (f" (+{entry['migrations_failed']} failed)"
                   if entry["migrations_failed"] else ""),
            ])
        table += "\n\n" + fmt_table(
            ["workload", "baseline", "autotuned", "speedup", "lpi",
             "remote", "migrations"],
            at_rows,
            title="autotune — simulated walls, profiling window vs "
            "live-migrated re-run",
        )
    sweep = doc.get("workers_sweep")
    if sweep and sweep.get("workloads"):
        sweep_rows = []
        for name, entry in sweep["workloads"].items():
            for suffix, label, serial_key in (
                ("", "live", "serial"),
                ("_extrap", "extrap", "serial_extrap"),
            ):
                serial = entry.get(serial_key)
                cells = [
                    entry.get(f"workers_{n}{suffix}")
                    for n in sweep["workers"]
                ]
                if serial is None or not any(cells):
                    continue
                row = [name, label, f"{serial['wall_s']:.2f}s"]
                for w in cells:
                    row.append(
                        f"{w['wall_s']:.2f}s ({w['speedup_vs_serial']:.2f}x)"
                        if w else "-"
                    )
                sweep_rows.append(row)
        table += "\n\n" + fmt_table(
            ["workload", "mode", "serial"]
            + [f"{n} workers" for n in sweep["workers"]],
            sweep_rows,
            title=f"workers sweep — monitored runs, host has "
            f"{sweep['host_cpus']} CPU(s)"
            + (" [UNDERPROVISIONED]" if sweep.get("underprovisioned")
               else ""),
        )
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-perf",
        description="Engine hot-path microbenchmark with regression check.",
    )
    parser.add_argument("--check", action="store_true",
                        help="CI smoke mode: scaled-down inputs "
                        f"(scale {SMOKE_SCALE}) compared against "
                        f"{SMOKE_BASELINE} at a {SMOKE_THRESHOLD:.0%} "
                        "threshold; exits non-zero on regression")
    parser.add_argument("--output", default=None,
                        help="where to write the results JSON (default: "
                        f"{DEFAULT_OUTPUT}, or {SMOKE_OUTPUT} with --check)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to compare against (default: "
                        f"{DEFAULT_BASELINE}, else the previous output)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="tolerated fractional chunks/s drop (default: "
                        f"{DEFAULT_THRESHOLD}, or {SMOKE_THRESHOLD} with "
                        "--check)")
    parser.add_argument("--preset", default="magny_cours",
                        choices=sorted(presets.PRESETS))
    parser.add_argument("--threads", type=int, default=48)
    parser.add_argument("--mechanism", default="IBS")
    parser.add_argument("--period", type=int, default=4096)
    parser.add_argument("--scale", type=float, default=None,
                        help="workload-size multiplier (0.1 = 10%% inputs; "
                        f"default: 1.0, or {SMOKE_SCALE} with --check)")
    parser.add_argument("--phase-breakdown", action="store_true",
                        help="add one traced monitored run per workload and "
                        "record per-phase self-times in the output JSON")
    parser.add_argument("--metrics", action="store_true",
                        help="add one metrics-plane monitored run per "
                        "workload and record the estimated sampling "
                        "overhead (always on with --check, gated at "
                        f"{METRICS_OVERHEAD_LIMIT_PCT:.0f}%% of the "
                        "monitored wall)")
    parser.add_argument("--autotune", action="store_true",
                        help="also run the closed autotune loop on "
                        f"{list(AUTOTUNE_WORKLOADS)} and record baseline "
                        "vs autotuned simulated walls in the output JSON")
    parser.add_argument("--workers-sweep", action="store_true",
                        help="also time sharded monitored runs at "
                        f"{list(SWEEP_WORKERS)} workers on "
                        f"{list(SWEEP_WORKLOADS)} and record the "
                        "speedup-vs-workers curve")
    return parser


def _config_matches(doc: dict, config: dict) -> bool:
    """Whether a baseline was recorded with the requested configuration."""
    return all(doc.get(key) == config[key] for key in CONFIG_KEYS)


def _load_baseline(args, config: dict) -> tuple[dict | None, str | None]:
    default = SMOKE_BASELINE if args.check else DEFAULT_BASELINE
    candidates = [args.baseline] if args.baseline else [
        default, args.output,
    ]
    for cand in candidates:
        if cand and Path(cand).is_file():
            with open(cand) as fh:
                doc = json.load(fh)
            if doc.get("schema") != SCHEMA:
                continue
            if not _config_matches(doc, config):
                print(f"ignoring baseline {cand}: recorded with a different "
                      "configuration ("
                      + ", ".join(f"{k}={doc.get(k)!r}" for k in CONFIG_KEYS)
                      + ")")
                continue
            return doc, cand
    return None, None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.output is None:
        args.output = SMOKE_OUTPUT if args.check else DEFAULT_OUTPUT
    if args.scale is None:
        args.scale = SMOKE_SCALE if args.check else 1.0
    if args.threshold is None:
        args.threshold = SMOKE_THRESHOLD if args.check else DEFAULT_THRESHOLD
    config = {
        "preset": args.preset,
        "threads": args.threads,
        "mechanism": args.mechanism,
        "period": args.period,
        "scale": args.scale,
    }
    baseline, baseline_path = _load_baseline(args, config)

    doc = run_perf(
        preset=args.preset,
        threads=args.threads,
        mechanism=args.mechanism,
        period=args.period,
        scale=args.scale,
        phase_breakdown=args.phase_breakdown,
        metrics=args.metrics or args.check,
    )
    if args.workers_sweep:
        doc["workers_sweep"] = run_workers_sweep(
            preset=args.preset,
            threads=args.threads,
            mechanism=args.mechanism,
            period=args.period,
            scale=args.scale,
        )
    if args.autotune:
        doc["autotune"] = run_autotune_bench(
            preset=args.preset,
            threads=args.threads,
            mechanism=args.mechanism,
            period=args.period,
            scale=args.scale,
        )
    noop_ok = metrics_ok = True
    if args.check:
        noop = measure_noop_overhead()
        doc["noop_overhead"] = dict(noop, limit_pct=NOOP_OVERHEAD_LIMIT_PCT)
        noop_ok = noop["overhead_pct"] < NOOP_OVERHEAD_LIMIT_PCT
        mt = doc["totals"].get("metrics")
        if mt is not None:
            metrics_ok = (
                mt["estimated_overhead_pct"] < METRICS_OVERHEAD_LIMIT_PCT
            )
    if baseline is not None:
        doc["comparison"] = dict(
            compare(doc, baseline, args.threshold), baseline=baseline_path
        )

    out = Path(args.output)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)

    print(render(doc))
    noop = doc.get("noop_overhead")
    if noop is not None:
        verdict = "ok" if noop_ok else "TOO HIGH"
        print(f"\ndisabled-telemetry estimate: "
              f"{noop['instrumentation_sites']:,} sites x "
              f"{noop['per_site_s'] * 1e9:.0f} ns = "
              f"{noop['overhead_pct']:.2f}% of a "
              f"{noop['wall_s'] * 1e3:.0f} ms engine-only run "
              f"(limit {NOOP_OVERHEAD_LIMIT_PCT:.0f}%: {verdict})")
        if not noop_ok:
            print("  REGRESSION: disabled tracer hooks cost too much")
    mt = doc["totals"].get("metrics")
    if mt is not None:
        verdict = "ok" if metrics_ok else "TOO HIGH"
        print(f"\nmetrics-plane estimate: {mt['n_samples']:,} samples -> "
              f"{mt['estimated_overhead_pct']:.2f}% of the monitored wall "
              f"(limit {METRICS_OVERHEAD_LIMIT_PCT:.0f}%: {verdict})")
        if not metrics_ok:
            print("  REGRESSION: metrics-plane sampling costs too much")
    comparison = doc.get("comparison")
    if comparison is None:
        print(f"\nno baseline found — recorded {out} as the new reference")
        return 0 if noop_ok and metrics_ok else 1

    def fmt_ratio(r: float | None) -> str:
        return f"{r:.2f}x" if r is not None else "n/a"

    eng = comparison["speedups"]["totals"]["engine_only"]
    mon = comparison["speedups"]["totals"]["monitored"]
    print(f"\nvs baseline {comparison['baseline']}: engine-only "
          f"{fmt_ratio(eng)}, monitored {fmt_ratio(mon)} (threshold "
          f"{comparison['threshold']:.0%} drop)")
    for line in missing_warnings(comparison.get("missing", [])):
        print(line)
    for line in comparison.get("unreliable", []):
        print(f"  warning: {line}")
    for reg in comparison["regressions"]:
        print(f"  REGRESSION: {reg}")
    return 0 if comparison["ok"] and noop_ok and metrics_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
