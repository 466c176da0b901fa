"""Golden parity: phase-adaptive extrapolation is invisible in the results.

Phase detection (:mod:`repro.runtime.phase`) lets the engine stop
simulating a repeated region once ``--extrap-warmup`` consecutive
iterations produced bit-identical deltas, and produce the remaining
iterations by closed-form multiplication. The contract has two tiers:

* **exact** (ε = 0): with a deterministic monitor (or none), every
  ``RunResult`` field, the merged CCTs, per-variable and per-bin
  metrics, and the counters come out exactly equal (``==``, no
  tolerances) with extrapolation on or off — serially and across
  worker counts, and even when a live-migration schedule fires
  mid-phase and forces a break back to live simulation.
* **ε-accounted**: with a jittered sampling mechanism (IBS), the
  engine-pure integers (instructions, accesses, chunks, DRAM request
  and traffic vectors) are still exact; cycle-valued outputs deviate
  within the declared ε, and the phase report must validate.
"""

import numpy as np
import pytest

from repro.analysis.merge import merge_profiles
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.parallel import ParallelEngine, sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from tests.checks import validate_phase_report
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec, profile

SCALE = 0.02
THREADS = 8
#: The paper's four benchmarks (Table 2).
WORKLOADS = ["lulesh", "amg", "blackscholes", "umt"]

#: Engine-pure integer fields: must stay exact even in ε mode.
INT_FIELDS = (
    "total_instructions", "total_accesses", "total_chunks",
    "dram_accesses", "remote_dram_accesses",
)

_exact_cache: dict[str, tuple] = {}


def _machine_factory():
    return presets.PRESETS["generic"]()


def _dear_factory():
    """Deterministic mechanism: period-1 DEAR reaches a selection fixed
    point, so extrapolation runs in exact (ε = 0) mode."""
    return NumaProfiler(create_mechanism("DEAR", 1))


def _ibs_factory():
    """Jittered mechanism: IBS randomizes per-sample skid, so steady
    iterations differ in cycle deltas and extrapolation must fall back
    to ε accounting."""
    return NumaProfiler(create_mechanism("IBS", 512))


def _run_serial(workload: str, *, extrapolate: bool, profiler=None,
                schedule=None):
    build = RunSpec(workload, scale=SCALE).program
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, schedule=schedule, extrapolate=extrapolate,
    )
    result = engine.run()
    archive = profiler.archive if profiler is not None else None
    return result, archive, engine


def _exact(workload: str):
    """Extrapolation-off serial run: the golden fully-simulated result."""
    if workload not in _exact_cache:
        result, archive, _ = _run_serial(
            workload, extrapolate=False, profiler=_dear_factory()
        )
        _exact_cache[workload] = (result, archive)
    return _exact_cache[workload]


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


def _assert_archives_equal(ref_archive, extrap_archive):
    assert set(ref_archive.profiles) == set(extrap_archive.profiles)
    ms = merge_profiles(ref_archive)
    mm = merge_profiles(extrap_archive)
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


def _assert_report_engaged(report: dict):
    assert report is not None and report["enabled"]
    assert validate_phase_report(report) == []
    assert report["coverage_pct"] > 0, "extrapolation never engaged"


# ---------------------------------------------------------------------- #
# exact mode: serial extrapolated vs serial simulated
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", WORKLOADS)
def test_serial_extrapolated_matches_exact(workload):
    ref_result, ref_archive = _exact(workload)
    result, archive, engine = _run_serial(
        workload, extrapolate=True, profiler=_dear_factory()
    )
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    report = engine.phase_report
    _assert_report_engaged(report)
    assert report["epsilon"] == 0.0
    assert report["extrapolated_eps"] == 0


# ---------------------------------------------------------------------- #
# exact mode: sharded extrapolated vs serial simulated
# ---------------------------------------------------------------------- #


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_extrapolated_matches_exact(workload, n_workers):
    ref_result, ref_archive = _exact(workload)
    build = RunSpec(workload, scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_dear_factory,
        memoize=True,
        extrapolate=True,
    )
    result = par.run()
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, par.archive)
    _assert_report_engaged(par.phase_report)
    assert par.phase_report["epsilon"] == 0.0


# ---------------------------------------------------------------------- #
# phase break: a schedule firing mid-phase forces live re-simulation
# ---------------------------------------------------------------------- #


def _long_sweep():
    """The partitioned sweep with enough steps (12) for the detector to
    arm, extrapolate, break on a mid-phase migration, re-arm, and
    extrapolate again within one region."""
    from repro.workloads import PartitionedSweep

    return PartitionedSweep(n_elems=int(400_000 * SCALE), steps=12)


def _sweep_schedule(iteration: int):
    """A rebind of ``data`` at the given iteration of the sweep's
    repeated region (region 1) — on the autotune/live-migration path."""
    from repro.optim.schedule import MigrationStep, PolicySchedule

    schedule = PolicySchedule()
    schedule.add(
        1, iteration,
        MigrationStep("data", PlacementPolicy.BLOCKWISE, (0, 1, 2, 3)),
    )
    return schedule


def _run_long_sweep(*, extrapolate: bool, schedule=None):
    profiler = _dear_factory()
    engine = ExecutionEngine(
        _machine_factory(), _long_sweep(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, schedule=schedule, extrapolate=extrapolate,
    )
    return engine.run(), profiler.archive, engine


def test_schedule_break_mid_phase_stays_identical():
    # Iteration 6 is well past arming (warmup 2 → armed after iteration
    # 2), so the detector is already extrapolating when the migration
    # fires; it must stop at the boundary, re-simulate live, re-arm, and
    # still produce bit-identical results.
    ref_result, ref_archive, ref_engine = _run_long_sweep(
        extrapolate=False, schedule=_sweep_schedule(6),
    )
    result, archive, engine = _run_long_sweep(
        extrapolate=True, schedule=_sweep_schedule(6),
    )
    assert engine.applied_actions == ref_engine.applied_actions
    assert [a.ok for a in engine.applied_actions] == [True]
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    report = engine.phase_report
    _assert_report_engaged(report)
    # The epoch bump mid-region must register as at least one phase
    # break (extrapolation stopped at the boundary and re-warmed).
    assert report["breaks"] >= 1


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("n_workers", [2, 4])
def test_schedule_break_sharded_stays_identical(n_workers):
    ref_result, ref_archive, ref_engine = _run_long_sweep(
        extrapolate=False, schedule=_sweep_schedule(6),
    )
    par = ParallelEngine(
        _machine_factory, _long_sweep, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_dear_factory,
        memoize=True,
        extrapolate=True,
        schedule=_sweep_schedule(6),
    )
    result = par.run()
    assert par.applied_actions == ref_engine.applied_actions
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, par.archive)
    _assert_report_engaged(par.phase_report)


# ---------------------------------------------------------------------- #
# ε mode: jittered sampling — pure ints exact, cycles within ε
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", ["lulesh", "blackscholes"])
def test_eps_mode_pure_ints_exact_and_report_valid(workload):
    ref_result, _, _ = _run_serial(
        workload, extrapolate=False, profiler=_ibs_factory()
    )
    result, _, engine = _run_serial(
        workload, extrapolate=True, profiler=_ibs_factory()
    )
    # Engine-pure integers are never approximated, even in ε mode.
    for f in INT_FIELDS:
        assert getattr(ref_result, f) == getattr(result, f), f
    assert np.array_equal(
        ref_result.domain_dram_requests, result.domain_dram_requests
    )
    assert np.array_equal(ref_result.domain_traffic, result.domain_traffic)

    report = engine.phase_report
    _assert_report_engaged(report)
    assert report["extrapolated_eps"] > 0, "ε mode never engaged"
    assert report["epsilon"] > 0.0
    # Cycle outputs deviate, but only by the order of the declared ε:
    # the window mean is an unbiased estimate of the jittered monitor
    # cost, so the relative wall deviation stays a small multiple of ε.
    dev = abs(result.wall_cycles - ref_result.wall_cycles)
    rel = dev / ref_result.wall_cycles
    assert rel <= max(10.0 * report["epsilon"], 1e-6), (
        f"wall deviation {rel:.3g} far exceeds declared eps "
        f"{report['epsilon']:.3g}"
    )


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
def test_sharded_eps_equals_serial_eps():
    """A sharded run declares the serial run's ε: the shards' column
    sums are added before the spread is taken, so a column that one
    shard barely samples does not declare ε = 1 on its own."""
    reports = [
        profile(RunSpec(
            "blackscholes", scale=0.5, extrapolate=True, workers=workers,
        )).phase_report
        for workers in (1, 2)
    ]
    serial, sharded = (r["epsilon"] for r in reports)
    assert [r["extrapolated_eps"] for r in reports] == [97, 97]
    assert round(serial, 3) == 0.416
    assert sharded == pytest.approx(serial, rel=1e-12, abs=0.0)


def test_exact_preferred_over_eps_when_monitor_fixed():
    """With a deterministic monitor, every extrapolated iteration must
    use the exact path — ε accounting is a fallback, not the default."""
    _, _, engine = _run_serial(
        "blackscholes", extrapolate=True, profiler=_dear_factory()
    )
    report = engine.phase_report
    _assert_report_engaged(report)
    assert report["extrapolated_eps"] == 0
    assert report["extrapolated_exact"] > 0


def test_extrapolation_off_attaches_no_report():
    _, _, engine = _run_serial(
        "blackscholes", extrapolate=False, profiler=_dear_factory()
    )
    assert engine.phase_report is None
