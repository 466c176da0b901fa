"""Checks of run outputs and of telemetry cost, for tests and CI smoke jobs.

Nothing in ``src/`` calls these; they check what the program reports and
what its instrumentation costs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.tracer import NOOP_SPAN, Tracer


def validate_phase_report(report: dict) -> list[str]:
    """Internal-consistency check of a phase report dict.

    Returns a list of problems (empty = valid). Used by the CI
    extrapolate-smoke job and the parity tests.
    """
    problems: list[str] = []

    def check(entry: dict, where: str) -> None:
        total = entry.get("iterations", 0)
        sim = entry.get("simulated", 0)
        exact = entry.get("extrapolated_exact", 0)
        eps = entry.get("extrapolated_eps", 0)
        if min(total, sim, exact, eps) < 0:
            problems.append(f"{where}: negative iteration counts")
        if sim + exact + eps != total:
            problems.append(
                f"{where}: simulated+extrapolated != iterations "
                f"({sim}+{exact}+{eps} != {total})"
            )
        cov = entry.get("coverage_pct", 0.0)
        expect = 100.0 * (exact + eps) / total if total else 0.0
        if abs(cov - expect) > 1e-9:
            problems.append(f"{where}: coverage_pct {cov} != {expect}")
        e = entry.get("epsilon", 0.0)
        if not (e >= 0.0) or not np.isfinite(e):
            problems.append(f"{where}: epsilon {e} not finite/non-negative")
        if eps == 0 and exact > 0 and e != 0.0 and where != "run":
            problems.append(
                f"{where}: exact-only extrapolation must declare epsilon 0"
            )
        for key in ("disarms", "breaks"):
            if entry.get(key, 0) < 0:
                problems.append(f"{where}: negative {key}")

    check(report, "run")
    for name, entry in report.get("regions", {}).items():
        check(entry, f"region {name!r}")
    run_eps = report.get("epsilon", 0.0)
    region_eps = max(
        (e.get("epsilon", 0.0) for e in report.get("regions", {}).values()),
        default=0.0,
    )
    if abs(run_eps - region_eps) > 1e-12:
        problems.append(f"run epsilon {run_eps} != max region {region_eps}")
    run_v = report.get("disarms", 0)
    region_v = sum(
        e.get("disarms", 0) for e in report.get("regions", {}).values()
    )
    if report.get("regions") and run_v != region_v:
        problems.append(f"run disarms {run_v} != sum of regions {region_v}")
    return problems


def run_sharded(par):
    """Run the built ``ParallelEngine`` ``par`` through its shard workers.

    ``ParallelEngine.run`` runs one worker in-process; the parity tests
    drive the fork and IPC protocol at one worker too, so they call the
    sharded path directly. Returns the ``RunResult``; ``par.archive``,
    ``par.threads`` and ``par.phase_report`` are set as after ``run``.
    """
    return par._run_sharded()


class CountingTracer(Tracer):
    """A tracer that only counts touch points — no timing, no storage.

    Running an instrumented workload under a ``CountingTracer`` reveals
    how many tracer calls the disabled path would have to absorb,
    without paying for event recording (:func:`measure_noop_overhead`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.enabled = True
        self.n_calls = 0

    def begin(self, name, cat="harness", **args) -> None:  # noqa: ARG002
        self.n_calls += 1

    def end(self) -> None:
        self.n_calls += 1

    def span(self, name, cat="harness", **args):  # noqa: ARG002
        self.n_calls += 2  # a span is a begin plus an end
        return NOOP_SPAN

    def pair(self, name, cat, track, t0_ns, t1_ns) -> None:  # noqa: ARG002
        self.n_calls += 1

    def instant(self, name, cat="harness", **args) -> None:  # noqa: ARG002
        self.n_calls += 1

    def count(self, name, n=1) -> None:  # noqa: ARG002
        self.n_calls += 1

    def gauge(self, name, value) -> None:  # noqa: ARG002
        self.n_calls += 1


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
    constructive: run a small workload under a :class:`CountingTracer` to
    count how many instrumentation sites actually fire, microbenchmark
    the disabled per-site cost (a module-global fetch plus an
    ``enabled`` test — exactly what every guarded hot path executes),
    and compare their product against the run's wall time. The site count
    is taken from the *enabled* path, which touches strictly more calls
    than the disabled one, so the estimate errs high.
    """
    from repro import obs
    from repro.machine import presets
    from repro.runtime import ExecutionEngine
    from repro.workloads import PartitionedSweep

    machine_factory = presets.PRESETS[preset]
    n_elems = max(int(400_000 * scale), 8_000)

    def run() -> float:
        engine = ExecutionEngine(
            machine_factory(), PartitionedSweep(n_elems=n_elems), threads,
        )
        t0 = time.perf_counter()
        engine.run()
        return time.perf_counter() - t0

    run()  # warm-up (imports, allocator pools)
    wall_s = min(run() for _ in range(repeats))

    counter = CountingTracer()
    old = obs.set_tracer(counter)
    try:
        run()
    finally:
        obs.set_tracer(old)

    t0 = time.perf_counter()
    for _ in range(bench_loops):
        tr = obs.TRACER
        if tr.enabled:  # pragma: no cover - tracer is disabled here
            pass
    per_site_s = (time.perf_counter() - t0) / bench_loops

    estimated_s = counter.n_calls * per_site_s
    return {
        "wall_s": wall_s,
        "instrumentation_sites": int(counter.n_calls),
        "per_site_s": per_site_s,
        "estimated_overhead_s": estimated_s,
        "overhead_pct": 100.0 * estimated_s / wall_s if wall_s else 0.0,
    }
