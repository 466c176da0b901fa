"""Failure injection: the simulator fails loudly and precisely.

A reproduction is only trustworthy if its error paths are: a monitor that
crashes must not be swallowed; out-of-memory, bad chunks, and
inconsistent resolutions must surface as the right exception at the
right moment.
"""

import pytest

from repro.errors import AllocationError, ProfileError, ProgramError
from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine, Monitor
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import sweep_chunk
from repro.runtime.program import Region, RegionKind
from repro.sampling import IBS

from tests.conftest import ToyProgram


class TestMonitorFailures:
    def test_monitor_exception_propagates(self, small_machine, toy_program):
        class Broken(Monitor):
            def on_step(self, views):
                raise RuntimeError("probe died")

        with pytest.raises(RuntimeError, match="probe died"):
            ExecutionEngine(
                small_machine, toy_program, 4, monitor=Broken()
            ).run()

    def test_alloc_hook_exception_propagates(self, small_machine, toy_program):
        class Broken(Monitor):
            def on_alloc(self, var):
                raise ValueError("bad wrapper")

        with pytest.raises(ValueError, match="bad wrapper"):
            ExecutionEngine(
                small_machine, toy_program, 4, monitor=Broken()
            ).run()


class TestMemoryExhaustion:
    def test_out_of_frames_raises_during_first_touch(self):
        machine = presets.generic(
            n_domains=2, cores_per_domain=1, frames_per_domain=4
        )
        with pytest.raises(AllocationError, match="out of simulated memory"):
            ExecutionEngine(machine, ToyProgram(n_elems=50_000), 2).run()

    def test_strict_bind_fails_at_allocation(self):
        from repro.machine.pagetable import PlacementPolicy
        from repro.optim.policies import NumaTuning, PlacementSpec
        from repro.workloads import PartitionedSweep

        machine = presets.generic(
            n_domains=2, cores_per_domain=1, frames_per_domain=4
        )
        tuning = NumaTuning(
            placement={"data": PlacementSpec(PlacementPolicy.BIND, (0,))}
        )
        with pytest.raises(AllocationError):
            ExecutionEngine(
                machine, PartitionedSweep(tuning, n_elems=50_000), 2
            ).run()


class TestMalformedPrograms:
    def test_chunk_outside_variable_bounds(self, small_machine):
        class Bad:
            name = "bad"

            def setup(self, ctx):
                ctx.heap.malloc(800, "v", (SourceLoc("main"),))

            def regions(self, ctx):
                v = ctx.var("v")

                def kernel(ctx, tid):
                    yield sweep_chunk(v, 0, 200, SourceLoc("k"))  # 200 > 100

                return [
                    Region("r", RegionKind.SERIAL, kernel, SourceLoc("r"))
                ]

        with pytest.raises(ProgramError, match="outside"):
            ExecutionEngine(small_machine, Bad(), 1).run()

    def test_setup_referencing_missing_variable(self, small_machine):
        class Bad:
            name = "bad"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                ctx.var("ghost")
                return []

        with pytest.raises(ProgramError, match="ghost"):
            ExecutionEngine(small_machine, Bad(), 1).run()


class TestProfilerConsistency:
    def test_resolution_mismatch_detected(self, small_machine, toy_program):
        """If the data-centric registry disagrees with ground truth, the
        profiler refuses to continue silently."""
        profiler = NumaProfiler(IBS(period=64))

        class Sabotaged(NumaProfiler):
            def on_alloc(self, var):
                super().on_alloc(var)
                # Corrupt the registry: rename the variable under its feet.
                self.registry._vars.clear()
                import copy

                fake = copy.copy(var)
                fake.name = "impostor"
                self.registry.register(fake)

        sab = Sabotaged(IBS(period=64))
        with pytest.raises(ProfileError, match="impostor"):
            ExecutionEngine(
                small_machine, toy_program, 4, monitor=sab
            ).run()

    def test_profiler_before_run_start(self):
        profiler = NumaProfiler(IBS())
        with pytest.raises(ProfileError):
            profiler._profile(0)
