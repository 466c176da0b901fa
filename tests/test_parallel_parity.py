"""Golden parity: sharded runs are bit-identical to serial.

The whole point of ``repro.parallel`` is that sharding is invisible in
the results — every ``RunResult`` field, the merged CCTs, per-variable
and per-bin metrics, per-thread address ranges, and the remote-event
counters must come out *exactly* equal (no tolerances) for worker counts
1, 2, and 4 across the bundled workloads.
"""

import numpy as np
import pytest

from repro.analysis.merge import merge_profiles
from repro.machine import presets
from repro.parallel import ParallelEngine, sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import sweep_chunk
from repro.runtime.program import Region, RegionKind
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec
from tests.checks import run_sharded

pytestmark = pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)

SCALE = 0.02
THREADS = 8
PERIOD = 512
#: The paper's four Table-2 workloads plus two canonical bug-pattern
#: kernels.
WORKLOADS = ["sweep", "hotspot", "lulesh", "amg", "blackscholes", "umt"]

_serial_cache: dict[str, tuple] = {}


def _machine_factory():
    return presets.PRESETS["generic"]()


def _monitor_factory():
    return NumaProfiler(create_mechanism("IBS", PERIOD))


def _serial(workload: str):
    if workload not in _serial_cache:
        build = RunSpec(workload, scale=SCALE).program
        profiler = _monitor_factory()
        engine = ExecutionEngine(
            _machine_factory(), build(), THREADS,
            monitor=profiler, binding=BindingPolicy.COMPACT,
        )
        result = engine.run()
        _serial_cache[workload] = (result, profiler.archive)
    return _serial_cache[workload]


def _sharded(workload: str, n_workers: int):
    build = RunSpec(workload, scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_monitor_factory,
    )
    # Through the shard workers even at one worker.
    return run_sharded(par), par.archive


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


def _assert_archives_equal(serial_archive, shard_archive):
    assert set(serial_archive.profiles) == set(shard_archive.profiles)
    ms = merge_profiles(serial_archive)
    mp = merge_profiles(shard_archive)
    # Remote-event and sampling counters (includes profiler.remote_* keys).
    assert dict(ms.counters) == dict(mp.counters)
    # Code-centric and data-centric CCTs, node by node.
    assert _cct_flat(ms.cct) == _cct_flat(mp.cct)
    assert _cct_flat(ms.data_cct) == _cct_flat(mp.data_cct)
    assert set(ms.vars) == set(mp.vars)
    for name in ms.vars:
        vs, vp = ms.vars[name], mp.vars[name]
        assert dict(vs.metrics) == dict(vp.metrics), name
        assert len(vs.bin_metrics) == len(vp.bin_metrics), name
        for i, (bs, bp) in enumerate(zip(vs.bin_metrics, vp.bin_metrics)):
            assert dict(bs) == dict(bp), (name, i)
        assert vs.thread_ranges == vp.thread_ranges, name
        assert len(vs.first_touches) == len(vp.first_touches), name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_matches_serial(workload, n_workers):
    serial_result, serial_archive = _serial(workload)
    shard_result, shard_archive = _sharded(workload, n_workers)
    _assert_results_equal(serial_result, shard_result)
    _assert_archives_equal(serial_archive, shard_archive)


def test_inline_fallback_matches_serial():
    """``run`` at ``n_workers=1`` runs in-process, same results."""
    serial_result, serial_archive = _serial("sweep")
    build = RunSpec("sweep", scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS, n_workers=1,
        binding=BindingPolicy.COMPACT, monitor_factory=_monitor_factory,
    )
    result = par.run()
    _assert_results_equal(serial_result, result)
    _assert_archives_equal(serial_archive, par.archive)
    assert par.threads is not None


def test_workers_clamped_to_threads():
    """More workers than threads clamps instead of forking idle shards."""
    build = RunSpec("sweep", scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, 2, n_workers=16,
        binding=BindingPolicy.COMPACT, monitor_factory=_monitor_factory,
    )
    assert par.n_workers == 2
    serial_prof = _monitor_factory()
    serial = ExecutionEngine(
        _machine_factory(), build(), 2,
        monitor=serial_prof, binding=BindingPolicy.COMPACT,
    ).run()
    _assert_results_equal(serial, par.run())
    _assert_archives_equal(serial_prof.archive, par.archive)


def test_parallel_engine_single_use():
    from repro.errors import ProgramError

    build = RunSpec("sweep", scale=SCALE).program
    par = ParallelEngine(_machine_factory, build, 2, n_workers=1)
    par.run()
    with pytest.raises(ProgramError):
        par.run()


# -- a mid-run exception inside a worker ------------------------------ #


class _ExplodingProgram:
    """Toy-style program whose parallel body raises partway through a
    generate round — inside a shard worker, mid-run.  (The threshold
    must sit inside the *first* iteration: the memo replays the cached
    trace on later ones, so a generator that survives iteration 1 is
    never called again.)"""

    name = "exploding"

    def __init__(self, n_elems: int = 20_000, steps: int = 4) -> None:
        self.n_elems = n_elems
        self.steps = steps
        self._calls = 0

    def setup(self, ctx) -> None:
        ctx.heap.malloc(self.n_elems * 8, "a", (SourceLoc("main"),))

    def regions(self, ctx):
        a = ctx.var("a")

        def init(ctx, tid):
            yield sweep_chunk(
                a, 0, self.n_elems, SourceLoc("init_loop"), is_store=True
            )

        def compute(ctx, tid):
            self._calls += 1
            if self._calls > 2:
                raise RuntimeError("boom: injected mid-run failure")
            lo, hi = ctx.partition(self.n_elems, tid)
            if hi > lo:
                yield sweep_chunk(a, lo, hi - lo, SourceLoc("compute_loop"))

        return [
            Region("init", RegionKind.SERIAL, init, SourceLoc("init")),
            Region(
                "compute._omp", RegionKind.PARALLEL, compute,
                SourceLoc("compute._omp"), repeat=self.steps,
            ),
        ]


def test_midrun_exception_propagates():
    """A kernel raising inside a worker fails the parent's run with the
    worker's exception."""
    par = ParallelEngine(
        _machine_factory, lambda: _ExplodingProgram(), THREADS,
        n_workers=2, binding=BindingPolicy.COMPACT,
        monitor_factory=_monitor_factory,
    )
    with pytest.raises(Exception, match="boom"):
        par.run()
