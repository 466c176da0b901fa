"""Golden parity: iteration memoization is invisible in the results.

The memo layer (:mod:`repro.runtime.memo`) caches generated chunk
traces, classification, latency products, and monitor views keyed on
everything they depend on — page-table epoch, fetch levels, contention
inflation. The contract is *bit-identity*: every ``RunResult`` field,
the merged CCTs, per-variable and per-bin metrics, per-thread address
ranges, and the counters must come out exactly equal (``==``, no
tolerances) with the memo on or off, serially and across worker counts,
even when a migration-heavy run bumps the page-table epoch mid-region
or a tiny byte budget forces constant eviction.
"""

import numpy as np
import pytest

from repro.analysis.merge import merge_profiles
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.parallel import ParallelEngine, sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec

SCALE = 0.02
THREADS = 8
PERIOD = 512
#: The paper's four benchmarks (Table 2).
WORKLOADS = ["lulesh", "amg", "blackscholes", "umt"]

_reference_cache: dict[str, tuple] = {}


def _machine_factory():
    return presets.PRESETS["generic"]()


def _monitor_factory():
    return NumaProfiler(create_mechanism("IBS", PERIOD))


def _run_serial(workload: str, *, memoize: bool, memo_bytes=None,
                profiler=None):
    build = RunSpec(workload, scale=SCALE).program
    if profiler is None:
        profiler = _monitor_factory()
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=memoize, memo_bytes=memo_bytes,
    )
    result = engine.run()
    return result, profiler.archive, engine


def _reference(workload: str):
    """Memo-off serial run: the golden uncached result."""
    if workload not in _reference_cache:
        result, archive, _ = _run_serial(workload, memoize=False)
        _reference_cache[workload] = (result, archive)
    return _reference_cache[workload]


def _cct_flat(cct) -> dict:
    return {
        str(node.path()): dict(node.metrics)
        for node in cct.root.walk()
        if node.metrics
    }


def _assert_results_equal(a, b):
    assert a.program == b.program
    assert a.n_threads == b.n_threads
    assert a.wall_cycles == b.wall_cycles
    assert np.array_equal(a.thread_busy_cycles, b.thread_busy_cycles)
    assert a.total_instructions == b.total_instructions
    assert a.total_accesses == b.total_accesses
    assert a.total_chunks == b.total_chunks
    assert a.dram_accesses == b.dram_accesses
    assert a.remote_dram_accesses == b.remote_dram_accesses
    assert a.monitor_overhead_cycles == b.monitor_overhead_cycles
    assert a.region_wall_cycles == b.region_wall_cycles
    assert np.array_equal(a.domain_dram_requests, b.domain_dram_requests)
    assert np.array_equal(a.domain_traffic, b.domain_traffic)


def _assert_archives_equal(ref_archive, memo_archive):
    assert set(ref_archive.profiles) == set(memo_archive.profiles)
    ms = merge_profiles(ref_archive)
    mm = merge_profiles(memo_archive)
    assert dict(ms.counters) == dict(mm.counters)
    assert _cct_flat(ms.cct) == _cct_flat(mm.cct)
    assert _cct_flat(ms.data_cct) == _cct_flat(mm.data_cct)
    assert set(ms.vars) == set(mm.vars)
    for name in ms.vars:
        vs, vm = ms.vars[name], mm.vars[name]
        assert dict(vs.metrics) == dict(vm.metrics), name
        assert len(vs.bin_metrics) == len(vm.bin_metrics), name
        for i, (bs, bm) in enumerate(zip(vs.bin_metrics, vm.bin_metrics)):
            assert dict(bs) == dict(bm), (name, i)
        assert vs.thread_ranges == vm.thread_ranges, name
        assert len(vs.first_touches) == len(vm.first_touches), name


# ---------------------------------------------------------------------- #
# serial memo-on vs memo-off
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", WORKLOADS)
def test_serial_memo_matches_no_memo(workload):
    ref_result, ref_archive = _reference(workload)
    memo_result, memo_archive, engine = _run_serial(workload, memoize=True)
    _assert_results_equal(ref_result, memo_result)
    _assert_archives_equal(ref_archive, memo_archive)
    stats = engine.memo.stats()
    assert stats["hits"] > 0, "memoization never engaged"


# ---------------------------------------------------------------------- #
# sharded memo-on vs serial memo-off
# ---------------------------------------------------------------------- #


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_memo_matches_no_memo(workload, n_workers):
    ref_result, ref_archive = _reference(workload)
    build = RunSpec(workload, scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_monitor_factory,
        force_sharded=n_workers > 1,
        memoize=True,
    )
    result = par.run()
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, par.archive)


# ---------------------------------------------------------------------- #
# epoch invalidation: migration-heavy run
# ---------------------------------------------------------------------- #


class MigratingProfiler(NumaProfiler):
    """Profiler that migrates a variable between region iterations.

    Models an external actor (OS balancer, online optimizer) rebinding
    pages while a repeated region runs: every iteration boundary flips
    the variable between interleaved and bound placement, bumping the
    page-table epoch mid-region. Cached classification keyed on the old
    epoch must be invalidated — results stay bit-identical to memo-off.
    """

    def __init__(self, mechanism, var_name: str, **kwargs) -> None:
        super().__init__(mechanism, **kwargs)
        self._var_name = var_name
        self.epochs: list[int] = []

    def on_region_exit(self, tid, region, iteration) -> None:
        super().on_region_exit(tid, region, iteration)
        if tid != 0 or region.repeat < 2 or iteration >= region.repeat - 1:
            return
        page_table = self._engine.machine.page_table
        var = self._engine.heap.variables.get(self._var_name)
        if var is None:
            return
        seg = page_table.segment_of_addr(var.base)
        if iteration % 2 == 0:
            page_table.migrate_segment(seg, PlacementPolicy.INTERLEAVE)
        else:
            page_table.migrate_segment(seg, PlacementPolicy.BIND, [0])
        self.epochs.append(page_table.epoch)


def _run_migrating(memoize: bool):
    profiler = MigratingProfiler(create_mechanism("IBS", PERIOD), "data")
    return _run_serial("sweep", memoize=memoize, profiler=profiler)


def test_migration_epoch_invalidation():
    ref_result, ref_archive, _ = _run_migrating(memoize=False)
    memo_result, memo_archive, engine = _run_migrating(memoize=True)
    _assert_results_equal(ref_result, memo_result)
    _assert_archives_equal(ref_archive, memo_archive)

    # The migrations actually bumped the epoch mid-region...
    profiler = engine.monitor
    assert len(profiler.epochs) >= 2
    assert profiler.epochs == sorted(profiler.epochs)

    # ...and the memo re-classified instead of replaying stale variants:
    # a static run of the same workload misses only on first iterations,
    # the migrating run must additionally miss after every epoch bump.
    _, _, static_engine = _run_serial("sweep", memoize=True)
    static_misses = static_engine.memo.stats()["misses"]
    migrating_misses = engine.memo.stats()["misses"]
    assert migrating_misses > static_misses


# ---------------------------------------------------------------------- #
# engine-level schedule (the autotune path): serial and sharded parity
# ---------------------------------------------------------------------- #


def _sweep_schedule():
    """A mid-run rebind on the autotune path (engine-level schedule)."""
    from repro.optim.schedule import MigrationStep, PolicySchedule

    schedule = PolicySchedule()
    # Region 1 is the repeated compute region of the sweep; iteration 1
    # leaves a profiled iteration before and iterations after the move.
    schedule.add(
        1, 1, MigrationStep("data", PlacementPolicy.BLOCKWISE, (0, 1, 2, 3))
    )
    return schedule


def _run_scheduled_serial(*, memoize: bool):
    build = RunSpec("sweep", scale=SCALE).program
    profiler = _monitor_factory()
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=memoize, schedule=_sweep_schedule(),
    )
    return engine.run(), profiler.archive, engine


def test_scheduled_migration_memo_parity_serial():
    ref_result, ref_archive, ref_engine = _run_scheduled_serial(memoize=False)
    memo_result, memo_archive, engine = _run_scheduled_serial(memoize=True)
    assert [a.ok for a in ref_engine.applied_actions] == [True]
    assert engine.applied_actions == ref_engine.applied_actions
    _assert_results_equal(ref_result, memo_result)
    _assert_archives_equal(ref_archive, memo_archive)


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_scheduled_migration_sharded_parity(n_workers):
    ref_result, ref_archive, ref_engine = _run_scheduled_serial(memoize=False)
    build = RunSpec("sweep", scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_monitor_factory,
        force_sharded=n_workers > 1,
        memoize=True,
        schedule=_sweep_schedule(),
    )
    result = par.run()
    assert par.applied_actions == ref_engine.applied_actions
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, par.archive)


# ---------------------------------------------------------------------- #
# LRU eviction under a starved budget
# ---------------------------------------------------------------------- #


def test_tiny_budget_evicts_but_results_identical():
    ref_result, ref_archive = _reference("amg")
    result, archive, engine = _run_serial("amg", memoize=True, memo_bytes=1)
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    stats = engine.memo.stats()
    assert stats["evictions"] > 0, "1-byte budget must evict"
    assert stats["record_bytes"] <= stats["budget_bytes"] or (
        stats["records"] <= 1
    )
