"""Period-p phase extrapolation: parity, sharing, and defenses.

The period-1 contract (``test_phase_parity``) generalizes to period-p
cycles: a deterministic monitor whose selection state cycles with
period p (e.g. DEAR with a period that does not divide the region's
per-iteration access count) produces iteration digests that repeat at
lag p, and the engine folds the cycle's p recordings in slot order —
still bit-identical to full simulation. This file also covers the
defenses and machinery the generalization introduces:

* digest collisions with differing pure deltas must never arm, at any
  period;
* the :class:`PhaseLibrary` lets a region with an identical trace skip
  warmup, with and without sharing staying bit-identical;
* the pay-for-itself disarm state machine (quiesce, probe, epoch
  re-arm);
* ``CacheHierarchy.phase_advance_cycle`` against continued simulation;
* ``union_plan`` combining per-shard readiness vectors.
"""

import copy

import numpy as np
import pytest

from repro.__main__ import _builders
from repro.machine import presets
from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.parallel import ParallelEngine, sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import sweep_chunk
from repro.runtime.phase import (
    IterationRecording,
    PhaseDetector,
    union_plan,
)
from repro.runtime.program import ProgramContext, Region, RegionKind
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.workloads.base import WorkloadBase

from tests.test_phase_parity import (
    SCALE,
    THREADS,
    _assert_archives_equal,
    _assert_report_engaged,
    _assert_results_equal,
    _machine_factory,
)


def _dear_factory(period: int):
    """DEAR with a period that does not divide the per-iteration access
    count cycles its carried selection state with period ``period`` —
    deterministic, so extrapolation still runs in exact (ε = 0) mode,
    but only a period-p detector can arm."""
    return NumaProfiler(create_mechanism("DEAR", period))


def _run(workload, *, extrapolate, dear_period, warmup, **kw):
    build = _builders(SCALE)[workload]
    profiler = _dear_factory(dear_period)
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, extrapolate=extrapolate, extrap_warmup=warmup,
        **kw,
    )
    return engine.run(), profiler.archive, engine


def _max_region_period(report: dict) -> int:
    return max(r["period"] for r in report["regions"].values())


# ---------------------------------------------------------------------- #
# period-p exact parity: serial
# ---------------------------------------------------------------------- #


_ref_cache: dict = {}


def _periodic_ref(workload, dear_period, warmup):
    key = (workload, dear_period, warmup)
    if key not in _ref_cache:
        result, archive, _ = _run(
            workload, extrapolate=False, dear_period=dear_period,
            warmup=warmup,
        )
        _ref_cache[key] = (result, archive)
    return _ref_cache[key]


@pytest.mark.parametrize(
    "workload,dear_period,warmup,period,share",
    [
        ("blackscholes", 4, 6, 2, True),
        ("blackscholes", 4, 6, 2, False),
        ("blackscholes", 3, 6, 3, True),
    ],
)
def test_serial_periodic_extrapolation_exact(workload, dear_period,
                                             warmup, period, share):
    ref_result, ref_archive = _periodic_ref(workload, dear_period, warmup)
    result, archive, engine = _run(
        workload, extrapolate=True, dear_period=dear_period, warmup=warmup,
        extrap_share=share,
    )
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    report = engine.phase_report
    _assert_report_engaged(report)
    # The cycling monitor defeats period-1 matching: coverage must come
    # from a genuine period-p plan, on the exact (ε = 0) path.
    assert _max_region_period(report) == period
    assert report["extrapolated_exact"] > 0
    assert report["extrapolated_eps"] == 0
    assert report["epsilon"] == 0.0


def test_period_capped_below_cycle_degrades_to_eps():
    """With --extrap-period 1 the monitor's period-2 cycle is invisible
    to exact matching, but the engine-pure digests still repeat at lag
    1 — the detector must degrade to ε accounting (pure integers exact,
    cycles within the declared ε), never silently diverge."""
    ref_result, _, _ = _run(
        "blackscholes", extrapolate=False, dear_period=4, warmup=6
    )
    result, _, engine = _run(
        "blackscholes", extrapolate=True, dear_period=4, warmup=6,
        extrap_period=1,
    )
    for f in ("total_instructions", "total_accesses", "total_chunks",
              "dram_accesses", "remote_dram_accesses"):
        assert getattr(ref_result, f) == getattr(result, f), f
    assert np.array_equal(
        ref_result.domain_dram_requests, result.domain_dram_requests
    )
    assert np.array_equal(ref_result.domain_traffic, result.domain_traffic)
    report = engine.phase_report
    _assert_report_engaged(report)
    assert _max_region_period(report) <= 1
    assert report["extrapolated_eps"] > 0
    assert report["extrapolated_exact"] == 0
    rel = abs(result.wall_cycles - ref_result.wall_cycles)
    rel /= ref_result.wall_cycles
    assert rel <= max(10.0 * report["epsilon"], 1e-6)


# ---------------------------------------------------------------------- #
# period-p exact parity: sharded
# ---------------------------------------------------------------------- #


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize(
    "n_workers,share",
    [(1, True), (2, True), (4, True), (2, False)],
)
def test_sharded_periodic_extrapolation_exact(n_workers, share):
    ref_result, ref_archive = _periodic_ref("blackscholes", 4, 6)
    build = _builders(SCALE)["blackscholes"]
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=lambda: _dear_factory(4),
        force_sharded=True,
        memoize=True,
        extrapolate=True,
        extrap_warmup=6,
        extrap_share=share,
    )
    result = par.run()
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, par.archive)
    report = par.phase_report
    _assert_report_engaged(report)
    assert _max_region_period(report) == 2
    assert report["epsilon"] == 0.0


# ---------------------------------------------------------------------- #
# cross-region phase sharing (PhaseLibrary)
# ---------------------------------------------------------------------- #


class TwinSweep(WorkloadBase):
    """Two back-to-back repeated regions with byte-identical traces.

    Region B's trace content key equals region A's, so with sharing on
    the detector must recognize A's published pattern and arm B after a
    single live iteration instead of a full warmup.
    """

    name = "twin_sweep"
    source_file = "twin.c"

    def __init__(self, tuning=None, *, n_elems=6_000, steps=6):
        super().__init__(tuning)
        self.n_elems = n_elems
        self.steps = steps

    def setup(self, ctx: ProgramContext) -> None:
        self._alloc(
            ctx, "data", self.n_elems * 8,
            (SourceLoc("main"), SourceLoc("malloc")),
        )

    def regions(self, ctx: ProgramContext) -> list[Region]:
        regions = self.make_init_regions(ctx, ["data"], line=10)

        def kernel(ctx: ProgramContext, tid: int):
            data = ctx.var("data")
            lo, hi = ctx.partition(self.n_elems, tid)
            if hi > lo:
                yield sweep_chunk(
                    data, lo, hi - lo,
                    SourceLoc("sweep", self.source_file, 42),
                )

        for name, line in (("compute_a._omp", 40), ("compute_b._omp", 60)):
            regions.append(
                Region(
                    name, RegionKind.PARALLEL, kernel,
                    SourceLoc(name, self.source_file, line),
                    repeat=self.steps,
                )
            )
        return regions


def _run_twins(*, extrapolate, extrap_share=True):
    profiler = NumaProfiler(create_mechanism("DEAR", 1))
    engine = ExecutionEngine(
        _machine_factory(), TwinSweep(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, extrapolate=extrapolate, extrap_share=extrap_share,
    )
    return engine.run(), profiler.archive, engine


def test_phase_library_shares_across_identical_regions():
    ref_result, ref_archive, _ = _run_twins(extrapolate=False)
    res_share, arch_share, eng_share = _run_twins(extrapolate=True)
    res_solo, arch_solo, eng_solo = _run_twins(
        extrapolate=True, extrap_share=False
    )
    # Sharing is an arming shortcut, never an accounting change: both
    # configurations stay bit-identical to full simulation.
    _assert_results_equal(ref_result, res_share)
    _assert_archives_equal(ref_archive, arch_share)
    _assert_results_equal(ref_result, res_solo)
    _assert_archives_equal(ref_archive, arch_solo)

    share = eng_share.phase_report
    solo = eng_solo.phase_report
    _assert_report_engaged(share)
    assert share["library_hits"] >= 1, "sharing never engaged"
    assert solo["library_hits"] == 0
    # The matched region skips warmup: strictly more iterations
    # extrapolated than the no-library run manages.
    b_share = share["regions"]["compute_b._omp"]
    b_solo = solo["regions"]["compute_b._omp"]
    assert b_share["library_hits"] >= 1
    assert (
        b_share["extrapolated_exact"] + b_share["extrapolated_eps"]
        > b_solo["extrapolated_exact"] + b_solo["extrapolated_eps"]
    )


# ---------------------------------------------------------------------- #
# collision defense: same digest, different deltas — must never arm
# ---------------------------------------------------------------------- #


def _rec(value: int, cycles: float = 100.0) -> IterationRecording:
    return IterationRecording(
        ints={"instructions": value},
        requests=np.array([value, 0]),
        traffic=np.array([8 * value, 0]),
        region_cycles={0: cycles},
        elapsed=cycles,
        oh_ops=[],
        cache_delta=({0: 64 * value}, [(0, 1, 0)], {(0, 1, 0): 64 * value}),
    )


def test_digest_collision_differing_deltas_never_arms_period_1():
    det = PhaseDetector(
        "r", warmup=2, max_period=1, monitor_present=False, disarm_after=0
    )
    for i in range(12):
        assert det.begin_iteration(0)
        # Identical digest every iteration (a collision), but the pure
        # integer deltas alternate: the defense comparison must break
        # the streak every time.
        det.end_live_iteration("COLLIDE", None, _rec(1 + i % 2), None, None)
        assert not det.ready, f"armed on a collision at iteration {i}"
    assert det.plan() is None


def test_digest_collision_differing_deltas_never_arms_period_p():
    det = PhaseDetector(
        "r", warmup=2, max_period=2, monitor_present=False, disarm_after=0
    )
    digests = ["A", "B"]
    for i in range(16):
        assert det.begin_iteration(0)
        # Digests repeat at lag 2, but the deltas cycle with period 4:
        # every lag-2 digest match pairs recordings with different
        # integer deltas, so streaks[2] must never grow.
        det.end_live_iteration(
            digests[i % 2], None, _rec(1 + i % 4), None, None
        )
        assert not det.ready, f"armed on a collision at iteration {i}"
    assert det.plan() is None


def test_true_period_2_cycle_arms():
    """Control for the collision tests: when deltas really do repeat at
    lag 2, the same inputs arm at period 2."""
    det = PhaseDetector("r", warmup=2, max_period=2, monitor_present=False)
    for i in range(8):
        det.begin_iteration(0)
        det.end_live_iteration(
            ["A", "B"][i % 2], None, _rec(1 + i % 2), None, None
        )
    assert det.ready_exact
    assert det.plan() == ("exact", 2, False)


# ---------------------------------------------------------------------- #
# pay-for-itself: disarm, probe, re-arm
# ---------------------------------------------------------------------- #


def _noisy(det: PhaseDetector, n: int, epoch: int = 0, base: int = 0) -> int:
    """Feed ``n`` never-matching live iterations; count observed ones."""
    observed = 0
    for i in range(n):
        if det.begin_iteration(epoch):
            observed += 1
            det.end_live_iteration(("noise", base + i), None,
                                   _rec(base + i), None, None)
    return observed


def test_detector_disarms_after_fruitless_windows():
    det = PhaseDetector(
        "r", warmup=2, max_period=2, disarm_after=1, monitor_present=False
    )
    window = det.disarm_window
    assert _noisy(det, window) == window
    assert not det.observing
    assert det.disarms == 1
    # Quiescent: begin_iteration refuses until the next probe window.
    assert not det.begin_iteration(0)


def test_quiescent_detector_probes_and_requiesces():
    det = PhaseDetector(
        "r", warmup=2, max_period=2, disarm_after=1, monitor_present=False
    )
    _noisy(det, det.disarm_window)
    assert not det.observing
    # One full probe cycle: probe_interval silent iterations, then a
    # probe window of live observation that (still noisy) re-quiesces.
    observed = _noisy(det, det.probe_interval + det.disarm_window, base=100)
    assert 0 < observed <= det.disarm_window
    assert det.disarms == 2
    assert not det.observing


def test_probe_window_reconverges_and_rearms():
    det = PhaseDetector(
        "r", warmup=2, max_period=1, disarm_after=1, monitor_present=False
    )
    _noisy(det, det.disarm_window)
    assert not det.observing
    # Burn the quiet iterations until the probe opens, then feed a
    # steady phase: the probe must catch it and stay armed.
    for _ in range(det.probe_interval - 1):
        assert not det.begin_iteration(0)
    for _ in range(4):
        if det.begin_iteration(0):
            det.end_live_iteration("STEADY", None, _rec(7), None, None)
    assert det.observing
    assert det.ready


def test_epoch_change_rearms_quiescent_detector():
    det = PhaseDetector(
        "r", warmup=2, max_period=2, disarm_after=1, monitor_present=False
    )
    _noisy(det, det.disarm_window)
    assert not det.observing
    # A placement mutation bumps the epoch: new behavior, re-observe
    # immediately instead of waiting out the probe interval.
    assert det.begin_iteration(1)
    assert det.observing


# ---------------------------------------------------------------------- #
# cache fast-forward: phase_advance_cycle vs continued simulation
# ---------------------------------------------------------------------- #


def _cycle_slot(cache: CacheHierarchy, slot: int) -> None:
    """One iteration of a 2-slot access cycle (distinct key sets and
    stream advances per slot, one key shared by both slots)."""
    if slot == 0:
        cache._fetch_level(0, 1, 0, 6_400)
        cache._fetch_level(0, 2, 0, 4_096)
    else:
        cache._fetch_level(0, 1, 0, 6_400)
        cache._fetch_level(0, 3, 0, 8_192)
        cache._fetch_level(1, 1, 0, 512)


@pytest.mark.parametrize("n_skip", [1, 2, 4, 5, 9])
def test_phase_advance_cycle_matches_simulation(n_skip):
    cache = CacheHierarchy(CacheConfig())
    for i in range(6):  # warm to a steady cycle
        _cycle_slot(cache, i % 2)
    # Record the live baseline cycle's per-slot deltas (chronological).
    deltas = []
    for slot in (0, 1):
        snap = cache.phase_snapshot()
        _cycle_slot(cache, slot)
        deltas.append(cache.phase_delta(snap))

    simulated = copy.deepcopy(cache)
    for t in range(n_skip):
        _cycle_slot(simulated, t % 2)
    cache.phase_advance_cycle(deltas, n_skip)
    assert cache._stream_pos == simulated._stream_pos
    assert cache._last_visit == simulated._last_visit
    assert cache.state_digest() == simulated.state_digest()


def test_phase_advance_cycle_period_1_delegates():
    cache = CacheHierarchy(CacheConfig())
    for _ in range(4):
        _cycle_slot(cache, 0)
    snap = cache.phase_snapshot()
    _cycle_slot(cache, 0)
    delta = cache.phase_delta(snap)

    simulated = copy.deepcopy(cache)
    for _ in range(7):
        _cycle_slot(simulated, 0)
    cache.phase_advance_cycle([delta], 7)
    assert cache._stream_pos == simulated._stream_pos
    assert cache._last_visit == simulated._last_visit


# ---------------------------------------------------------------------- #
# union_plan: per-shard readiness vectors → union plan
# ---------------------------------------------------------------------- #


def _payload(ready_exact, ready_eps, steady):
    return {
        "ready_exact": ready_exact, "ready_eps": ready_eps,
        "steady": steady, "breaks": 0, "disarmed": False,
        "disarms": 0, "library_hits": 0, "period": 0,
    }


def test_union_plan_smallest_common_period():
    shards = [
        _payload([False, True], [False, False], [0, 4]),
        _payload([True, True], [True, False], [3, 6]),
    ]
    assert union_plan(shards, 2) == ("exact", 2, 4)


def test_union_plan_prefers_exact_over_smaller_eps_period():
    shards = [
        _payload([False, True], [True, True], [2, 4]),
        _payload([False, True], [True, True], [5, 3]),
    ]
    assert union_plan(shards, 2) == ("exact", 2, 3)


def test_union_plan_eps_fallback():
    shards = [
        _payload([False, False], [True, False], [4, 0]),
        _payload([False, False], [True, False], [2, 0]),
    ]
    assert union_plan(shards, 2) == ("eps", 1, 2)


def test_union_plan_requires_every_shard():
    ready = _payload([True], [True], [5])
    assert union_plan([ready, None], 1) is None
    assert union_plan([], 1) is None
    assert union_plan(
        [ready, _payload([False], [False], [0])], 1
    ) is None
