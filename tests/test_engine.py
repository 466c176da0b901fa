"""Execution engine: scheduling, barriers, cycle accounting, hooks."""

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.machine import presets
from repro.runtime import ExecutionEngine, Monitor
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import compute_chunk
from repro.runtime.engine import LazyChunkView
from repro.runtime.memo import StepViews
from repro.runtime.program import Region, RegionKind
from repro.runtime.thread import BindingPolicy
from repro.spec import RunSpec

from tests.conftest import ToyProgram
from tests.reference.access import ChunkView


class ComputeOnly:
    """Pure-compute program (no memory traffic at all)."""

    name = "compute_only"

    def setup(self, ctx):
        pass

    def regions(self, ctx):
        def kernel(ctx, tid):
            yield compute_chunk(10_000, SourceLoc("spin"))

        return [
            Region("spin._omp", RegionKind.PARALLEL, kernel, SourceLoc("spin._omp"))
        ]


class TestBasicExecution:
    def test_compute_only_timing(self):
        machine = presets.generic(n_domains=2, cores_per_domain=2)
        res = ExecutionEngine(machine, ComputeOnly(), 4).run()
        # Parallel barrier: wall equals one thread's instructions x CPI.
        assert res.wall_cycles == pytest.approx(10_000 * machine.base_cpi)
        assert res.total_instructions == 40_000
        assert res.total_accesses == 0

    def test_engine_single_use(self, small_machine, toy_program):
        eng = ExecutionEngine(small_machine, toy_program, 4)
        eng.run()
        with pytest.raises(ProgramError):
            eng.run()

    def test_serial_region_runs_master_only(self, small_machine):
        seen = []

        class P:
            name = "p"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                def kernel(ctx, tid):
                    seen.append(tid)
                    yield compute_chunk(10, SourceLoc("k"))

                return [Region("s", RegionKind.SERIAL, kernel, SourceLoc("s"))]

        ExecutionEngine(small_machine, P(), 8).run()
        assert seen == [0]

    def test_region_repeat_multiplies_work(self, small_machine):
        class P:
            name = "p"

            def __init__(self, repeat):
                self.repeat = repeat

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                def kernel(ctx, tid):
                    yield compute_chunk(100, SourceLoc("k"))

                return [
                    Region("r", RegionKind.SERIAL, kernel, SourceLoc("r"),
                           repeat=self.repeat)
                ]

        one = ExecutionEngine(small_machine, P(1), 1).run()
        m2 = presets.generic(n_domains=4, cores_per_domain=2)
        three = ExecutionEngine(m2, P(3), 1).run()
        assert three.total_instructions == 3 * one.total_instructions

    def test_binding_policy_forwarded(self, small_machine, toy_program):
        eng = ExecutionEngine(
            small_machine, toy_program, 4, binding=BindingPolicy.SCATTER
        )
        assert [t.domain for t in eng.threads] == [0, 1, 2, 3]


class TestFirstTouchSemantics:
    def test_serial_init_centralizes_pages(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 8).run()
        counts = small_machine.page_table.domain_page_counts()
        assert counts[0] == counts.sum()  # all pages in master's domain

    def test_remote_fraction_reflects_placement(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 8).run()
        # All pages live in domain 0. Remote DRAM fetches come only from
        # the six threads outside domain 0, each fetching its slice's
        # lines once (later sweeps hit cache): 6 * (n / 8 threads / 8
        # elems-per-line) lines.
        slice_lines = toy_program.n_elems // 8 // 8
        assert res.remote_dram_accesses == 6 * slice_lines


class TestBarriers:
    def test_imbalanced_threads_wall_is_max(self):
        machine = presets.generic(n_domains=2, cores_per_domain=2)

        class Imbalanced:
            name = "imb"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                def kernel(ctx, tid):
                    yield compute_chunk(1000 * (tid + 1), SourceLoc("k"))

                return [
                    Region("r._omp", RegionKind.PARALLEL, kernel, SourceLoc("r"))
                ]

        res = ExecutionEngine(machine, Imbalanced(), 4).run()
        assert res.wall_cycles == pytest.approx(4000 * machine.base_cpi)
        assert res.thread_busy_cycles[0] == pytest.approx(1000 * machine.base_cpi)


class TestMonitorIntegration:
    def test_monitor_cost_charged_to_wall(self, small_machine, toy_program):
        class Expensive(Monitor):
            def on_step(self, views):
                return [1e6] * len(views)

        base_machine = presets.generic(n_domains=4, cores_per_domain=2)
        base = ExecutionEngine(base_machine, ToyProgram(), 8).run()
        mon = ExecutionEngine(
            small_machine, toy_program, 8, monitor=Expensive()
        ).run()
        assert mon.wall_cycles > base.wall_cycles
        assert mon.monitor_overhead_cycles > 0

    def test_hooks_called_in_order(self, small_machine, toy_program):
        events = []

        class Spy(Monitor):
            def on_run_start(self, engine):
                events.append("start")

            def on_alloc(self, var):
                events.append(f"alloc:{var.name}")

            def on_region_enter(self, tid, region, iteration):
                events.append(f"enter:{region.name}:{tid}:{iteration}")

            def on_region_exit(self, tid, region, iteration):
                events.append(f"exit:{region.name}:{tid}:{iteration}")

            def on_run_end(self, result):
                events.append("end")

        ExecutionEngine(small_machine, ToyProgram(steps=1), 2, monitor=Spy()).run()
        assert events[0] == "start"
        assert events[1] == "alloc:a"
        assert events[-1] == "end"
        assert "enter:init:0:0" in events
        assert "enter:compute._omp:1:0" in events

    def test_chunk_hook_receives_full_arrays(self, small_machine, toy_program):
        captured = {}

        class Capture(Monitor):
            def on_step(self, views):
                for v in views:
                    if v.chunk.var is not None and "n" not in captured:
                        captured["n"] = v.chunk.n_accesses
                        captured["levels"] = v.levels.shape
                        captured["lat"] = v.latencies.shape
                        captured["path"] = v.path
                return [0.0] * len(views)

        ExecutionEngine(small_machine, toy_program, 4, monitor=Capture()).run()
        assert captured["levels"] == (captured["n"],)
        assert captured["lat"] == (captured["n"],)
        assert captured["path"][0].func == "main"

    @pytest.mark.parametrize("workload", ["lulesh", "blackscholes"])
    @pytest.mark.parametrize("memoize", [True, False])
    def test_step_views_carry_their_views_columns(self, workload, memoize):
        """Every ``StepViews`` the engine hands a monitor carries its
        views' own thread, instruction and access counts and a ``memo``
        dict, on fresh and retained steps alike."""
        steps = []

        class Check(Monitor):
            def on_step(self, views):
                assert isinstance(views, StepViews)
                n = len(views)
                for col in (views.tids, views.n_ins, views.n_acc):
                    assert col.dtype == np.int64 and col.shape == (n,)
                assert views.tids.tolist() == [v.tid for v in views]
                assert views.n_ins.tolist() == [
                    v.chunk.n_instructions for v in views
                ]
                assert views.n_acc.tolist() == [
                    v.chunk.n_accesses for v in views
                ]
                assert isinstance(views.memo, dict)
                steps.append(views)
                return [0.0] * n

        spec = RunSpec(workload, scale=0.02, threads=8, machine="generic")
        ExecutionEngine(
            spec.machine_factory()(), spec.program(), spec.threads,
            monitor=Check(), memoize=memoize,
        ).run()
        assert steps
        # Retained steps hand back the same object on later iterations.
        assert (len({id(v) for v in steps}) < len(steps)) == memoize

    @pytest.mark.parametrize("workload", ["lulesh", "umt", "blackscholes"])
    def test_compute_views_answer_as_empty_eager_views(self, workload):
        """Every view is lazy, and a pure-compute chunk's answers as the
        reference ``ChunkView`` with empty arrays does, dtypes included."""
        spec = RunSpec(workload, scale=0.05, threads=8, machine="generic")
        machine = spec.machine_factory()()
        l1 = machine.latency_model.l1
        thresholds = (0.0, l1 - 1.0, l1, l1 + 1.0)
        seen = {}

        class Check(Monitor):
            def on_step(self, views):
                for v in views:
                    assert isinstance(v, LazyChunkView)
                    if not v.chunk.n_accesses and id(v) not in seen:
                        seen[id(v)] = v
                        _check_compute_view(v, thresholds)
                return [0.0] * len(views)

        ExecutionEngine(
            machine, spec.program(), spec.threads, monitor=Check()
        ).run()
        assert seen

    def test_region_wall_accounting(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 8).run()
        assert set(res.region_wall_cycles) == {"init", "compute._omp"}
        assert res.region_wall_cycles["compute._omp"] > 0
        total = sum(res.region_wall_cycles.values())
        assert total == pytest.approx(res.wall_cycles)


def _check_compute_view(v, thresholds) -> None:
    """``v`` answers every monitor query as an empty eager view does."""
    ref = ChunkView(
        v.tid, v.cpu, v.domain, v.chunk, np.empty(0, dtype=np.uint8),
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), v.path,
        np.empty(0, dtype=bool), np.empty(0, dtype=bool),
    )
    answers = [("miss_events", v.miss_events(), ref.miss_events())]
    for x in thresholds:
        answers += [
            ("demand_miss_events", v.demand_miss_events(x),
             ref.demand_miss_events(x)),
            ("slow_events", v.slow_events(x), ref.slow_events(x)),
        ]
    answers += [
        (name, getattr(v, name), getattr(ref, name))
        for name in ("levels", "target_domains", "latencies", "dram_mask",
                     "remote_mask")
    ]
    for name, got, want in answers:
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape == (0,), name
    assert v.remote_event_count() == ref.remote_event_count() == 0
    assert v.latency_total() == ref.latency_total() == 0.0


class TestRunResult:
    def test_wall_seconds(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 4).run()
        assert res.wall_seconds == pytest.approx(
            res.wall_cycles / (small_machine.ghz * 1e9)
        )

    def test_region_seconds_missing_region(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 4).run()
        assert res.region_seconds("nope") == 0.0

    def test_domain_requests_sum_to_dram(self, small_machine, toy_program):
        res = ExecutionEngine(small_machine, toy_program, 4).run()
        assert res.domain_dram_requests.sum() == res.dram_accesses


class TestMLP:
    def test_higher_mlp_is_faster(self):
        def run(mlp):
            m = presets.generic(n_domains=4, cores_per_domain=2)
            m.mlp = mlp
            return ExecutionEngine(m, ToyProgram(), 8).run().wall_cycles

        assert run(4.0) < run(1.0)
