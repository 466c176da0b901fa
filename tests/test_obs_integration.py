"""End-to-end telemetry: a traced monitored run covers the whole stack."""

from __future__ import annotations

import time

import pytest

from repro import NumaAnalysis, NumaProfiler, advise, merge_profiles, obs
from repro.obs import chrome_trace, phase_breakdown, validate_chrome_trace
from repro.runtime import ExecutionEngine
from repro.sampling import IBS
from repro.spec import RunSpec, profile

from .checks import measure_noop_overhead
from .conftest import ToyProgram


@pytest.fixture
def traced():
    """Enable the global tracer for one test; always restore it."""
    tracer = obs.enable()
    yield tracer
    obs.disable()
    tracer.clear()


def _traced_pipeline(small_machine):
    profiler = NumaProfiler(IBS(period=512))
    engine = ExecutionEngine(
        small_machine, ToyProgram(n_elems=60_000, steps=2), 8,
        monitor=profiler,
    )
    engine.run()
    merged = merge_profiles(profiler.archive)
    advise(NumaAnalysis(merged),
           thread_domains={t.tid: t.domain for t in engine.threads})
    return merged


class TestTracedPipeline:
    def test_all_phases_covered(self, traced, small_machine):
        _traced_pipeline(small_machine)
        cats = {cat for (cat, _name) in traced.self_ns}
        assert {"engine", "sampling", "profiler", "analysis"} <= cats
        assert traced.counters["engine.steps"] > 0
        assert traced.counters["sampling.samples.selected"] > 0
        assert traced.gauges["profiler.code_rows"] > 0

    def test_trace_is_valid_chrome_json(self, traced, small_machine):
        _traced_pipeline(small_machine)
        doc = chrome_trace(traced)
        assert validate_chrome_trace(doc) == []
        # One track per simulated thread plus the harness track.
        tids = {ev["tid"] for ev in doc["traceEvents"]}
        assert 0 in tids and len(tids) >= 9

    def test_self_times_partition_engine_run(self, traced, small_machine):
        _traced_pipeline(small_machine)
        pb = phase_breakdown(traced)
        # Spans inside engine.run (engine/sampling/profiler) partition its
        # inclusive duration exactly; analysis spans sit outside it.
        inside = sum(
            pb["by_category"][cat]
            for cat in ("engine", "sampling", "profiler")
        )
        run_total_s = traced.total_ns[("engine", "engine.run")] / 1e9
        assert inside == pytest.approx(run_total_s, rel=1e-9)


class TestNoopOverhead:
    def test_disabled_telemetry_under_five_percent(self):
        est = measure_noop_overhead(
            preset="generic", threads=4, scale=0.02, repeats=2,
            bench_loops=50_000,
        )
        assert est["instrumentation_sites"] > 0
        assert est["overhead_pct"] < 5.0

    def test_global_tracer_restored(self):
        before = obs.TRACER
        measure_noop_overhead(
            preset="generic", threads=2, scale=0.02, repeats=1,
            bench_loops=1_000,
        )
        assert obs.TRACER is before
        assert not obs.TRACER.enabled


class TestMetricsOverhead:
    def test_sampling_costs_under_two_percent_of_the_monitored_wall(self):
        """The metrics plane costs under 2% of a monitored run's wall.

        The estimate is constructive, like the no-op guard: the samples
        one recorded run takes, times the microbenchmarked cost of one
        sample against that run's real counter and gauge population,
        over the wall of the same run without the plane.
        """
        spec = RunSpec("lulesh", scale=0.05)
        profile(spec)  # warm-up
        wall_s = min(profile(spec).host_wall_s for _ in range(2))

        tracer = obs.Tracer()
        old = obs.set_tracer(tracer)
        try:
            tracer.enable()
            tracer.metrics = obs.MetricsRecorder()
            profile(spec)
            n_samples = tracer.metrics.n_total
            bench = obs.MetricsRecorder()
            values = {
                "engine.chunks": 0.0,
                "engine.accesses": 0.0,
                "engine.instructions": 0.0,
            }
            loops = 2000
            t0 = time.perf_counter()
            for i in range(loops):
                values["engine.chunks"] = float(i)
                bench.sample(
                    tracer, flags=obs.FLAG_ITERATION, region="bench",
                    iteration=i, values=values,
                )
            per_sample_s = (time.perf_counter() - t0) / loops
        finally:
            obs.set_tracer(old)
        assert n_samples > 0
        assert 100.0 * n_samples * per_sample_s / wall_s < 2.0
