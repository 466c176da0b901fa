"""Blackscholes workload: staggered sections, low lpi, regroup transform."""

import pytest

from repro.analysis import NumaAnalysis, classify_ranges, merge_profiles
from repro.analysis.patterns import AccessPattern
from repro.machine import presets
from repro.optim.policies import NumaTuning
from repro.profiler import NumaProfiler
from repro.profiler.metrics import verdict
from repro.runtime import ExecutionEngine
from repro.sampling import IBS
from repro.workloads import Blackscholes
from repro.workloads.blackscholes import SECTIONS

SMALL = dict(n_options=20_000, steps=20)


@pytest.fixture(scope="module")
def profiled():
    machine = presets.magny_cours()
    prof = NumaProfiler(IBS(period=4096))
    engine = ExecutionEngine(machine, Blackscholes(**SMALL), 48, monitor=prof)
    result = engine.run()
    return engine, result, merge_profiles(prof.archive)


@pytest.fixture(scope="module")
def dense_merged():
    """Soft-IBS at a tiny period: dense address capture for pattern tests."""
    from repro.sampling import SoftIBS

    machine = presets.magny_cours()
    prof = NumaProfiler(SoftIBS(period=16))
    engine = ExecutionEngine(
        machine, Blackscholes(n_options=20_000, steps=4), 48, monitor=prof
    )
    engine.run()
    return merge_profiles(prof.archive)


class TestLayout:
    def test_five_sections(self):
        assert len(SECTIONS) == 5

    def test_buffer_holds_five_sections(self, profiled):
        _, _, merged = profiled
        prog_bytes = 5 * SMALL["n_options"] * 8
        assert merged.var("buffer").nbytes == prog_bytes


class TestPattern:
    def test_staggered_overlap(self, dense_merged):
        """The Fig. 8 picture: ascending sub-ranges with large overlaps."""
        merged = dense_merged
        rep = classify_ranges(merged.var("buffer").normalized_ranges())
        assert rep.pattern is AccessPattern.STAGGERED_OVERLAP
        assert rep.mean_overlap > 0.5
        assert 0.6 < rep.mean_coverage < 0.95

    def test_buffer_dominates_remote_latency(self, profiled):
        _, _, merged = profiled
        an = NumaAnalysis(merged)
        assert an.variable_summary("buffer").remote_latency_share > 0.5


class TestVerdict:
    def test_lpi_below_threshold(self, profiled):
        """The tool's headline Blackscholes result."""
        _, _, merged = profiled
        an = NumaAnalysis(merged)
        assert an.program_lpi() < 0.1
        assert verdict(an.program_lpi()) is False


class TestRegroup:
    def test_regrouped_access_is_contiguous_per_thread(self):
        tuning = NumaTuning(regroup={"buffer"}, parallel_init={"buffer", "prices"})
        machine = presets.magny_cours()
        prof = NumaProfiler(IBS(period=2048))
        engine = ExecutionEngine(
            machine, Blackscholes(tuning, **SMALL), 48, monitor=prof
        )
        engine.run()
        merged = merge_profiles(prof.archive)
        rep = classify_ranges(merged.var("buffer").normalized_ranges())
        assert rep.pattern is AccessPattern.BLOCKED
        assert rep.mean_overlap < 0.1

    def test_optimizing_anyway_changes_little(self):
        """Eliminating NUMA traffic barely moves compute-dominated time."""
        base = ExecutionEngine(
            presets.magny_cours(), Blackscholes(**SMALL), 48
        ).run()
        tuning = NumaTuning(
            regroup={"buffer"}, parallel_init={"buffer", "prices"}
        )
        opt = ExecutionEngine(
            presets.magny_cours(), Blackscholes(tuning, **SMALL), 48
        ).run()
        gain = base.wall_seconds / opt.wall_seconds - 1
        assert abs(gain) < 0.02  # paper: < 0.1% at full scale

    def test_regroup_eliminates_remote_traffic(self):
        tuning = NumaTuning(
            regroup={"buffer"}, parallel_init={"buffer", "prices"}
        )
        opt = ExecutionEngine(
            presets.magny_cours(), Blackscholes(tuning, **SMALL), 48
        ).run()
        assert opt.remote_dram_fraction < 0.05
