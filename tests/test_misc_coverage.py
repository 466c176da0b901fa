"""Remaining small-surface coverage: classification objects, timeline
buckets, and engine edge conditions."""

import numpy as np
import pytest

from repro.machine.cache import LEVEL_DRAM, LEVEL_L1
from repro.profiler.timeline import TimelineBucket
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import compute_chunk
from repro.runtime.program import Region, RegionKind
from tests.reference.access import ChunkClassification


class TestChunkClassification:
    def test_n_fetches(self):
        levels = np.array([LEVEL_L1, LEVEL_DRAM, LEVEL_L1, LEVEL_DRAM],
                          dtype=np.uint8)
        cls = ChunkClassification(levels, True, 128)
        assert cls.n_fetches == 2


class TestTimelineBucket:
    def test_remote_fraction_empty(self):
        assert TimelineBucket("r", 0).remote_fraction() == 0.0

    def test_remote_fraction(self):
        b = TimelineBucket("r", 0)
        b.metrics["NUMA_MATCH"] = 1.0
        b.metrics["NUMA_MISMATCH"] = 3.0
        assert b.remote_fraction() == pytest.approx(0.75)


class TestEngineEdges:
    def test_empty_region_kernel(self, small_machine):
        class Empty:
            name = "empty"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                def kernel(ctx, tid):
                    return iter(())

                return [
                    Region("r._omp", RegionKind.PARALLEL, kernel,
                           SourceLoc("r._omp"))
                ]

        res = ExecutionEngine(small_machine, Empty(), 4).run()
        assert res.wall_cycles == 0.0
        assert res.total_accesses == 0

    def test_program_with_no_regions(self, small_machine):
        class NoRegions:
            name = "none"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                return []

        res = ExecutionEngine(small_machine, NoRegions(), 2).run()
        assert res.wall_cycles == 0.0

    def test_single_thread_parallel_region(self, small_machine):
        class One:
            name = "one"

            def setup(self, ctx):
                pass

            def regions(self, ctx):
                def kernel(ctx, tid):
                    yield compute_chunk(100, SourceLoc("k"))

                return [
                    Region("r._omp", RegionKind.PARALLEL, kernel,
                           SourceLoc("r._omp"))
                ]

        res = ExecutionEngine(small_machine, One(), 1).run()
        assert res.total_instructions == 100
