"""Deferred (batched) profiler vs. the per-chunk immediate path.

``NumaProfiler`` accumulates metrics in flat numpy tables and flushes
once at ``on_run_end``. These tests pin the golden contract: for every
mechanism, a deferred run produces the *identical* archive the
per-chunk ``ImmediateProfiler`` reference does — same RunResult
timing, same CCT node sets and totals, same per-variable, per-bin, and
per-range data-centric records, same counters. Integer-valued metrics
must match exactly; accumulated latency sums are compared at 1e-9
relative tolerance (bincount accumulation vs. sequential addition round
differently in the last ulp).
"""

import numpy as np
import pytest

from repro.errors import InvalidAddressError
from repro.machine import presets
from repro.machine.cache import LEVEL_L1
from repro.machine.pagetable import PlacementPolicy
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from repro.runtime.engine import ChunkView
from repro.runtime.memo import StepViews
from repro.sampling import DEAR, IBS, MRK, PEBS, PEBSLL, SoftIBS
from tests.conftest import ToyProgram
from tests.reference.immediate_profiler import ImmediateProfiler

#: Metrics whose accumulation order may differ between the two paths.
LAT_METRICS = {"LAT_TOTAL", "LAT_REMOTE"}

MECHS = {
    "ibs": lambda: IBS(period=512),
    "pebs": lambda: PEBS(period=512),
    "pebs_noskid": lambda: PEBS(period=512, skid_correction=False),
    "pebs_ll": lambda: PEBSLL(period=3),
    "dear": lambda: DEAR(period=5),
    "mrk": lambda: MRK(period=4),
    "soft_ibs": lambda: SoftIBS(period=64),
}


def profiled_run(make_mech, deferred):
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    profiler = (NumaProfiler if deferred else ImmediateProfiler)(make_mech())
    result = ExecutionEngine(
        machine, ToyProgram(), 8, monitor=profiler
    ).run()
    return result, profiler.archive


def cct_items(cct):
    """{path: metrics} for every annotated node of a CCT."""
    return {
        node.path(): dict(node.metrics)
        for node in cct.root.walk()
        if node.metrics
    }


def assert_metrics_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key, va in a.items():
        if key in LAT_METRICS:
            assert va == pytest.approx(b[key], rel=1e-9)
        else:
            assert va == b[key]


@pytest.mark.parametrize("name", list(MECHS))
def test_deferred_archive_matches_immediate(name):
    res_d, arc_d = profiled_run(MECHS[name], True)
    res_i, arc_i = profiled_run(MECHS[name], False)

    # Timing identical: mechanism costs are computed with the same
    # arithmetic on both paths, so overhead and wall cycles agree exactly.
    assert res_d.wall_cycles == res_i.wall_cycles
    assert res_d.monitor_overhead_cycles == res_i.monitor_overhead_cycles
    assert res_d.total_instructions == res_i.total_instructions
    assert res_d.dram_accesses == res_i.dram_accesses
    assert res_d.remote_dram_accesses == res_i.remote_dram_accesses
    np.testing.assert_array_equal(
        res_d.thread_busy_cycles, res_i.thread_busy_cycles
    )

    assert arc_d.profiles.keys() == arc_i.profiles.keys()
    for tid, pd in arc_d.profiles.items():
        pi = arc_i.profiles[tid]
        assert dict(pd.counters) == dict(pi.counters)

        # Code-centric and augmented CCTs: identical node sets + metrics.
        for which in ("cct", "data_cct"):
            items_d = cct_items(getattr(pd, which))
            items_i = cct_items(getattr(pi, which))
            assert items_d.keys() == items_i.keys()
            for path in items_i:
                assert_metrics_equal(items_d[path], items_i[path])

        # Data-centric records: per-variable metrics, bins, ranges.
        assert pd.vars.keys() == pi.vars.keys()
        for vname, rec_d in pd.vars.items():
            rec_i = pi.vars[vname]
            assert rec_d.n_bins == rec_i.n_bins
            assert_metrics_equal(dict(rec_d.metrics), dict(rec_i.metrics))
            for bin_d, bin_i in zip(rec_d.bins, rec_i.bins):
                assert_metrics_equal(dict(bin_d.metrics), dict(bin_i.metrics))
            assert rec_d.ranges.keys() == rec_i.ranges.keys()
            for path, arr_i in rec_i.ranges.items():
                np.testing.assert_array_equal(rec_d.ranges[path], arr_i)

        # First-touch records are attributed immediately on both paths.
        assert len(pd.first_touches) == len(pi.first_touches)


def test_deferred_cct_totals_match():
    """Acceptance invariant, spelled out: identical whole-tree totals."""
    _, arc_d = profiled_run(MECHS["ibs"], True)
    _, arc_i = profiled_run(MECHS["ibs"], False)
    for tid, pd in arc_d.profiles.items():
        pi = arc_i.profiles[tid]
        for metric in ("SAMPLES", "NUMA_MATCH", "NUMA_MISMATCH", "INSTR",
                       "SAMPLED_INSTR"):
            assert pd.cct.total(metric) == pi.cct.total(metric)
        assert pd.cct.total("LAT_TOTAL") == pytest.approx(
            pi.cct.total("LAT_TOTAL"), rel=1e-9
        )


def _sample_every_access(addrs_of, registered=("a", "b")):
    """Push one eager step through ``on_step`` with every access sampled.

    ``addrs_of(a, b, page_size)`` gives the chunk's addresses, for two
    mapped variables ``a`` and ``b`` of which the profiler knows the
    ``registered`` ones; the chunk carries no ground-truth variable, so
    only resolution can object.
    """
    machine = presets.generic(n_domains=2, cores_per_domain=2)
    profiler = NumaProfiler(SoftIBS(period=1))
    engine = ExecutionEngine(machine, ToyProgram(), 2, monitor=profiler)
    profiler.on_run_start(engine)
    a, b = (
        engine.heap.malloc(
            8 * 4096, name, (SourceLoc("main"),),
            policy=PlacementPolicy.INTERLEAVE, domains=[0, 1],
        )
        for name in ("a", "b")
    )
    for var in (a, b):
        if var.name in registered:
            profiler.on_alloc(var)
    addrs = np.asarray(addrs_of(a, b, machine.page_size), dtype=np.int64)
    n = addrs.size
    t = engine.threads[0]
    view = ChunkView(
        t.tid, t.cpu, t.domain, AccessChunk(None, addrs, n, SourceLoc("k")),
        np.full(n, LEVEL_L1, dtype=np.uint8), np.zeros(n, np.int64),
        np.full(n, 4.0), (SourceLoc("k"),), np.zeros(n, bool),
        np.zeros(n, bool),
    )
    profiler.on_step(StepViews.from_views([view]))


@pytest.mark.parametrize("addrs_of, match", [
    # Starts in ``a`` and ends in ``b``.
    (lambda a, b, ps: [a.base, a.base + 64, b.base], "straddles"),
    # Past every mapped page.
    (lambda a, b, ps: [b.end + 16 * ps], "not mapped"),
])
def test_bad_sample_address_raises_through_on_step(addrs_of, match):
    with pytest.raises(InvalidAddressError, match=match):
        _sample_every_access(addrs_of)


def test_sample_in_unregistered_variable_raises():
    """A mapped page whose variable the registry does not know."""
    with pytest.raises(InvalidAddressError, match="matches no variable"):
        _sample_every_access(lambda a, b, ps: [a.base + 8], registered=("b",))
