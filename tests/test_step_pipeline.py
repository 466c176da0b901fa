"""Tests for the step pipeline's accounting invariants.

Covers engine vs. profiler access-counter agreement, serial-region busy/wall
accounting, protection traps on static and stack variables, and the
golden per-bin attribution test proving samples land in their own bins
(not smeared proportionally across the variable).
"""

from __future__ import annotations

import pytest

from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.profiler import NumaProfiler
from repro.profiler.metrics import MetricNames
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import compute_chunk, sweep_chunk
from repro.runtime.program import Region, RegionKind
from repro.sampling import IBS, SoftIBS

from tests.conftest import ToyProgram


def test_engine_and_profiler_agree_on_access_counts():
    """The engine's access counter and the profiler's per-thread
    ``accesses`` counters are fed from the same chunks and must agree."""
    profiler = NumaProfiler(IBS(period=512))
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    result = ExecutionEngine(
        machine, ToyProgram(40_000, steps=2), n_threads=8, monitor=profiler
    ).run()
    profiled = sum(
        p.counters["accesses"] for p in profiler.archive.profiles.values()
    )
    assert result.total_accesses == profiled
    profiled_instr = sum(
        p.counters["instructions"] for p in profiler.archive.profiles.values()
    )
    assert result.total_instructions == profiled_instr


class SerialParallelCompute:
    """Pure-compute program: one serial region, one parallel region."""

    name = "serial_parallel"
    SERIAL_INSTR = 10_000
    PARALLEL_INSTR = 6_000

    def setup(self, ctx):
        pass

    def regions(self, ctx):
        def serial(ctx, tid):
            yield compute_chunk(self.SERIAL_INSTR, SourceLoc("serial_work"))

        def par(ctx, tid):
            yield compute_chunk(self.PARALLEL_INSTR, SourceLoc("par_work"))

        return [
            Region("serial", RegionKind.SERIAL, serial, SourceLoc("serial")),
            Region("par._omp", RegionKind.PARALLEL, par, SourceLoc("par._omp")),
        ]


class TestSerialRegionAccounting:
    def test_busy_and_wall_cycles(self, small_machine):
        prog = SerialParallelCompute()
        result = ExecutionEngine(small_machine, prog, n_threads=4).run()
        cpi = small_machine.base_cpi

        # Only the master thread runs (and accrues busy time in) the
        # serial region; workers sit idle through it.
        assert result.thread_busy_cycles[0] == pytest.approx(
            (prog.SERIAL_INSTR + prog.PARALLEL_INSTR) * cpi
        )
        for tid in range(1, 4):
            assert result.thread_busy_cycles[tid] == pytest.approx(
                prog.PARALLEL_INSTR * cpi
            )

        # Wall time covers the serial elapsed plus the parallel span.
        assert result.wall_cycles == pytest.approx(
            (prog.SERIAL_INSTR + prog.PARALLEL_INSTR) * cpi
        )
        assert result.region_wall_cycles["serial"] == pytest.approx(
            prog.SERIAL_INSTR * cpi
        )
        assert result.region_wall_cycles["par._omp"] == pytest.approx(
            prog.PARALLEL_INSTR * cpi
        )


class StaticStackProgram:
    """Touches one static and one stack variable from the master thread."""

    name = "static_stack"
    N_ELEMS = 4_096  # 32 KiB -> 8 pages each

    def setup(self, ctx):
        ctx.heap.static_alloc(self.N_ELEMS * 8, "gdata")
        ctx.heap.stack_alloc(self.N_ELEMS * 8, "frame", tid=0)

    def regions(self, ctx):
        g, f = ctx.var("gdata"), ctx.var("frame")

        def touch(ctx, tid):
            yield sweep_chunk(
                g, 0, self.N_ELEMS, SourceLoc("touch_static", "s.c", 1),
                is_store=True,
            )
            yield sweep_chunk(
                f, 0, self.N_ELEMS, SourceLoc("touch_stack", "s.c", 2),
                is_store=True,
            )

        return [Region("touch", RegionKind.SERIAL, touch, SourceLoc("touch"))]


class TestStaticStackProtection:
    def run(self, **profiler_kwargs):
        machine = presets.generic(n_domains=2, cores_per_domain=2)
        profiler = NumaProfiler(IBS(period=128), **profiler_kwargs)
        ExecutionEngine(
            machine, StaticStackProgram(), n_threads=2, monitor=profiler
        ).run()
        return profiler.archive

    def test_first_touch_traps_on_static_and_stack(self):
        arc = self.run(protect_static=True, protect_stack=True)
        fts = arc.thread(0).first_touches
        touched = {ft.var_name for ft in fts}
        assert touched == {"gdata", "frame"}
        n_pages = StaticStackProgram.N_ELEMS * 8 // 4096
        for ft in fts:
            assert ft.tid == 0
            assert ft.n_pages >= n_pages - 1

    def test_default_profiler_skips_static_and_stack(self):
        arc = self.run()  # protect_heap only (the default)
        assert arc.thread(0).first_touches == []


class BlockwiseSweep:
    """One thread sweeping a block-wise-distributed variable.

    Pages 0-3 live on domain 0 (local to the sweeping thread), pages 4-7
    on domain 1 (remote): the lower half of the variable is all-local and
    the upper half all-remote, the sharpest possible bin contrast.
    """

    name = "blockwise"
    N_ELEMS = 4_096  # 32 KiB -> 8 pages, above the single-bin threshold

    def setup(self, ctx):
        ctx.heap.malloc(
            self.N_ELEMS * 8,
            "x",
            (SourceLoc("main"), SourceLoc("operator new[]")),
            policy=PlacementPolicy.BLOCKWISE,
            domains=[0, 1],
        )

    def regions(self, ctx):
        x = ctx.var("x")

        def sweep(ctx, tid):
            yield sweep_chunk(x, 0, self.N_ELEMS, SourceLoc("sweep", "b.c", 3))

        return [Region("sweep", RegionKind.SERIAL, sweep, SourceLoc("sweep"))]


class TestGoldenBinAttribution:
    """Golden test: per-sample bin attribution, not proportional smearing.

    Soft-IBS at period 1 samples every access, so the expected per-bin
    metrics are exact: each of the 4 bins gets 1024 samples; the two bins
    over domain-0 pages must show zero NUMA mismatches and the two bins
    over domain-1 pages must show nothing but mismatches. The old
    proportional split would have spread the mismatches evenly across
    all four bins (512 each) — this pins the fix.
    """

    def build_record(self):
        machine = presets.generic(n_domains=2, cores_per_domain=1)
        profiler = NumaProfiler(SoftIBS(period=1), n_bins=4)
        ExecutionEngine(
            machine, BlockwiseSweep(), n_threads=1, monitor=profiler
        ).run()
        return profiler.archive.thread(0).vars["x"]

    def test_mismatches_land_in_their_own_bins(self):
        rec = self.build_record()
        assert rec.n_bins == 4
        samples_per_bin = BlockwiseSweep.N_ELEMS // 4
        for b in range(4):
            m = rec.bins[b].metrics
            assert m[MetricNames.SAMPLES] == samples_per_bin
            if b < 2:  # domain-0 (local) half of the variable
                assert m[MetricNames.NUMA_MISMATCH] == 0
                assert m[MetricNames.NUMA_MATCH] == samples_per_bin
            else:  # domain-1 (remote) half
                assert m[MetricNames.NUMA_MISMATCH] == samples_per_bin
                assert m[MetricNames.NUMA_MATCH] == 0

    def test_variable_totals_are_preserved(self):
        rec = self.build_record()
        total = sum(
            b.metrics[MetricNames.NUMA_MISMATCH] for b in rec.bins
        )
        assert total == rec.metrics[MetricNames.NUMA_MISMATCH]
        assert total == BlockwiseSweep.N_ELEMS / 2
