"""Time-varying NUMA traces (paper future work #3) and monitor composition."""

import numpy as np
import pytest

from repro.machine import presets
from repro.profiler import CompositeMonitor, NumaProfiler, TimelineRecorder
from repro.profiler.metrics import MetricNames
from repro.runtime import ExecutionEngine
from repro.sampling import IBS
from repro.spec import RunSpec

from tests.conftest import ToyProgram


@pytest.fixture
def recorded():
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    timeline = TimelineRecorder()
    profiler = NumaProfiler(IBS(period=512))
    engine = ExecutionEngine(
        machine, ToyProgram(steps=4), 8,
        monitor=CompositeMonitor(profiler, timeline),
    )
    result = engine.run()
    return timeline, profiler, result


class TestTimeline:
    def test_buckets_per_region_iteration(self, recorded):
        timeline, _, _ = recorded
        assert ("init", 0) in timeline.buckets
        compute = timeline.series("compute._omp")
        assert [b.iteration for b in compute] == [0, 1, 2, 3]

    def test_init_is_all_local(self, recorded):
        timeline, _, _ = recorded
        init = timeline.buckets[("init", 0)]
        assert init.remote_fraction() == 0.0

    def test_compute_iterations_are_remote(self, recorded):
        timeline, _, _ = recorded
        series = timeline.remote_fraction_series("compute._omp")
        # 6 of 8 threads access remotely in every timestep.
        assert np.all(series > 0.5)

    def test_exact_access_conservation(self, recorded):
        """Timeline counts the full access stream, not samples."""
        timeline, _, result = recorded
        counted = sum(
            b.metrics[MetricNames.NUMA_MATCH]
            + b.metrics[MetricNames.NUMA_MISMATCH]
            for b in timeline.buckets.values()
        )
        assert counted == result.total_accesses

    @pytest.mark.parametrize("workload", ["lulesh", "blackscholes"])
    def test_instructions_sum_to_run_total(self, workload):
        """Pure-compute chunks' instructions reach their buckets too."""
        spec = RunSpec(workload, scale=0.05)
        timeline = TimelineRecorder()
        result = ExecutionEngine(
            spec.machine_factory()(), spec.program(), spec.threads,
            monitor=timeline,
        ).run()
        counted = sum(
            b.metrics[MetricNames.INSTR] for b in timeline.buckets.values()
        )
        assert counted == result.total_instructions

    def test_dram_concentrated_in_first_compute_step(self, recorded):
        """Compulsory misses land in iteration 0; later steps hit cache."""
        timeline, _, _ = recorded
        compute = timeline.series("compute._omp")
        assert compute[0].metrics["DRAM"] > 5 * compute[1].metrics["DRAM"]

    def test_render(self, recorded):
        timeline, _, _ = recorded
        text = timeline.render("compute._omp", width=20)
        assert "it   0" in text and "%" in text
        assert text.count("|") == 2 * 4  # two bars per iteration line

    def test_unknown_region_empty(self, recorded):
        timeline, _, _ = recorded
        assert timeline.series("ghost") == []
        assert timeline.remote_fraction_series("ghost").size == 0


class TestCompositeMonitor:
    def test_profiler_still_collects(self, recorded):
        _, profiler, _ = recorded
        merged_samples = sum(
            p.counters["samples"] for p in profiler.archive.profiles.values()
        )
        assert merged_samples > 0

    def test_costs_sum(self):
        from repro.runtime.engine import Monitor

        class Cost(Monitor):
            def __init__(self, c):
                self.c = c

            def on_step(self, views):
                return [self.c] * len(views)

        machine = presets.generic(n_domains=4, cores_per_domain=2)
        composite = CompositeMonitor(Cost(10.0), Cost(5.0))
        res = ExecutionEngine(
            machine, ToyProgram(steps=1), 4, monitor=composite
        ).run()
        # Each chunk charged 15 cycles of combined monitoring cost.
        n_chunks = 1 + 4  # serial init + one compute chunk per thread
        assert res.monitor_overhead_cycles == pytest.approx(15.0 * n_chunks)

    def test_first_touch_fans_out(self):
        events = []

        from repro.runtime.engine import Monitor

        class Spy(Monitor):
            def __init__(self, tag):
                self.tag = tag

            def on_first_touch(self, tid, cpu, var, pages, path):
                events.append(self.tag)
                return 0.0

        machine = presets.generic(n_domains=4, cores_per_domain=2)
        profiler = NumaProfiler(IBS(period=512))  # protects heap pages
        composite = CompositeMonitor(profiler, Spy("a"), Spy("b"))
        ExecutionEngine(
            machine, ToyProgram(steps=1), 4, monitor=composite
        ).run()
        assert "a" in events and "b" in events
