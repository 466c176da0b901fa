"""TimelineRecorder stacked with NumaProfiler on lazy step views.

Satellite check for the observability PR: the engine hands each memory
chunk to its monitor as a ``LazyChunkView``, a ``CompositeMonitor`` fans the step views out to both monitors, and with
Soft-IBS at period 1 (every access sampled) the profiler's CCT totals
must agree exactly with the recorder's full-stream bucket totals.
"""

from __future__ import annotations

import pytest

from repro import NumaProfiler, merge_profiles, obs
from repro.profiler.metrics import MetricNames
from repro.profiler.timeline import CompositeMonitor, TimelineRecorder
from repro.runtime import ExecutionEngine
from repro.sampling import create_mechanism
from repro.workloads import PartitionedSweep


@pytest.fixture
def stacked_run(small_machine):
    """One lazy-path run observed by timeline + profiler simultaneously."""
    tracer = obs.enable()
    timeline = TimelineRecorder()
    profiler = NumaProfiler(create_mechanism("Soft-IBS", 1))
    engine = ExecutionEngine(
        small_machine,
        PartitionedSweep(n_elems=400_000, steps=2),
        n_threads=4,
        monitor=CompositeMonitor(timeline, profiler),
    )
    result = engine.run()
    obs.disable()
    counters = dict(tracer.counters)
    tracer.clear()
    return timeline, profiler, result, counters


class TestStackedMonitorsLazyPath:
    def test_run_used_summary_path(self, stacked_run):
        _, _, _, counters = stacked_run
        assert counters.get("engine.steps_summary", 0) > 0
        # Lazy views were materialized on demand for the monitors.
        assert counters.get("engine.lazy.materialized_latencies", 0) > 0

    def test_bucket_totals_match_cct_totals(self, stacked_run):
        timeline, profiler, _, _ = stacked_run
        merged = merge_profiles(profiler.archive)
        for metric in (MetricNames.NUMA_MATCH, MetricNames.NUMA_MISMATCH):
            bucket_total = sum(
                b.metrics.get(metric, 0.0) for b in timeline.buckets.values()
            )
            cct_total = merged.cct.total(metric)
            assert cct_total == pytest.approx(bucket_total), metric
        # Soft-IBS measures no latency: the exact recorder still sees it,
        # the sampled CCT must not invent it.
        assert not profiler.mechanism.capabilities.measures_latency
        assert merged.cct.total(MetricNames.LAT_TOTAL) == 0.0
        assert sum(
            b.metrics[MetricNames.LAT_TOTAL]
            for b in timeline.buckets.values()
        ) > 0.0

    def test_all_accesses_observed(self, stacked_run):
        timeline, profiler, result, _ = stacked_run
        merged = merge_profiles(profiler.archive)
        bucket_accesses = sum(
            b.metrics[MetricNames.NUMA_MATCH]
            + b.metrics[MetricNames.NUMA_MISMATCH]
            for b in timeline.buckets.values()
        )
        # The recorder sees the full stream; period-1 Soft-IBS samples it
        # all, so both equal the run's total memory accesses.
        assert bucket_accesses == result.total_accesses
        assert merged.counters["samples"] == result.total_accesses

    def test_timeline_series_cover_iterations(self, stacked_run):
        timeline, _, _, _ = stacked_run
        regions = {name for (name, _it) in timeline.buckets}
        assert any("sweep" in r or "compute" in r for r in regions)
        series = timeline.remote_fraction_series(sorted(regions)[-1])
        assert series.size >= 1
