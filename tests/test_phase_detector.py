"""Phase detector machinery and its defenses.

``test_phase_parity`` covers extrapolation's bit-identity contract end
to end; this file covers the pieces behind it:

* a monitor whose selection state cycles (DEAR with a period that does
  not divide the per-iteration access count) never reaches an exact
  fixed point, so the detector must arm in ε mode with exact integers;
* digest collisions with differing pure deltas must never arm;
* the pay-for-itself disarm state machine (quiesce, probe, epoch
  re-arm);
* the cache adapter's fast-forward (``CachePhase.advance``) against
  continued simulation;
* ``union_plan`` combining per-shard readiness;
* the adapter lookup: which monitors a run can extrapolate with.
"""

import copy

import numpy as np

from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.profiler.phase import ProfilerPhase
from repro.runtime.engine import Monitor
from repro.runtime.phase import (
    CachePhase,
    IterationRecording,
    PhaseDetector,
    monitor_adapter,
    relative_spread,
    summed_spread,
    union_plan,
)
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec
from tests.reference.access import fetch_level
from tests.reference.immediate_profiler import ImmediateProfiler
from tests.reference.reuse import hierarchy_digest

from tests.test_phase_parity import (
    SCALE,
    THREADS,
    _assert_report_engaged,
    _assert_results_equal,
    _machine_factory,
)


def _run_dear(monkeypatch, *, extrapolate, dear_period=4, heatmap=False):
    # A six-iteration warmup gives the ε window several samples.
    monkeypatch.setattr(ExecutionEngine, "EXTRAP_WARMUP", 6)
    build = RunSpec("blackscholes", scale=SCALE).program
    profiler = NumaProfiler(
        create_mechanism("DEAR", dear_period), heatmap=heatmap
    )
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, extrapolate=extrapolate,
    )
    return engine.run(), engine


def test_cycling_monitor_arms_eps_with_exact_integers(monkeypatch):
    """DEAR's carried selection state cycles with period 2, so the
    monitor digest never repeats at lag 1 — but the engine-pure digests
    do. The detector must arm in ε mode (pure integers exact, cycles
    within the declared ε), never silently diverge."""
    ref_result, _ = _run_dear(monkeypatch, extrapolate=False)
    result, engine = _run_dear(monkeypatch, extrapolate=True)
    for f in ("total_instructions", "total_accesses", "total_chunks",
              "dram_accesses", "remote_dram_accesses"):
        assert getattr(ref_result, f) == getattr(result, f), f
    assert np.array_equal(
        ref_result.domain_dram_requests, result.domain_dram_requests
    )
    assert np.array_equal(ref_result.domain_traffic, result.domain_traffic)
    report = engine.phase_report
    _assert_report_engaged(report)
    assert report["extrapolated_eps"] > 0
    assert report["extrapolated_exact"] == 0
    rel = abs(result.wall_cycles - ref_result.wall_cycles)
    rel /= ref_result.wall_cycles
    assert rel <= max(10.0 * report["epsilon"], 1e-6)


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
        cache_delta=({0: 64 * value}, [(0, 1, 0)]),
    )


def test_digest_collision_differing_deltas_never_arms():
    det = PhaseDetector("r", warmup=2, monitor_present=False, disarm_after=0)
    for i in range(12):
        assert det.begin_iteration(0)
        # Identical digest every iteration (a collision), but the pure
        # integer deltas alternate: the defense comparison must break
        # the streak every time.
        det.end_live_iteration("COLLIDE", None, _rec(1 + i % 2), None, None)
        assert not det.ready, f"armed on a collision at iteration {i}"
    assert union_plan([det.phase_payload()]) is None


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
    det = PhaseDetector("r", warmup=2, disarm_after=1, monitor_present=False)
    window = det.disarm_window
    assert _noisy(det, window) == window
    assert not det.observing
    assert det.disarms == 1
    # Quiescent: begin_iteration refuses until the next probe window.
    assert not det.begin_iteration(0)


def test_quiescent_detector_probes_and_requiesces():
    det = PhaseDetector("r", warmup=2, disarm_after=1, monitor_present=False)
    _noisy(det, det.disarm_window)
    assert not det.observing
    # One full probe cycle: probe_interval silent iterations, then a
    # probe window of live observation that (still noisy) re-quiesces.
    observed = _noisy(det, det.probe_interval + det.disarm_window, base=100)
    assert 0 < observed <= det.disarm_window
    assert det.disarms == 2
    assert not det.observing


def test_probe_window_reconverges_and_rearms():
    det = PhaseDetector("r", warmup=2, disarm_after=1, monitor_present=False)
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
    det = PhaseDetector("r", warmup=2, disarm_after=1, monitor_present=False)
    _noisy(det, det.disarm_window)
    assert not det.observing
    # A placement mutation bumps the epoch: new behavior, re-observe
    # immediately instead of waiting out the probe interval.
    assert det.begin_iteration(1)
    assert det.observing


# ---------------------------------------------------------------------- #
# cache fast-forward: CachePhase.advance vs continued simulation
# ---------------------------------------------------------------------- #


def _steady_iteration(cache: CacheHierarchy) -> None:
    """One iteration of a steady access pattern (two CPUs, one key
    shared by both)."""
    fetch_level(cache, 0, 1, 0, 6_400)
    fetch_level(cache, 0, 2, 0, 4_096)
    fetch_level(cache, 1, 1, 0, 512)


def test_phase_advance_matches_simulation():
    cache = CacheHierarchy(CacheConfig())
    for _ in range(4):
        _steady_iteration(cache)
    phase = CachePhase(cache)
    snap = phase.snapshot()
    _steady_iteration(cache)
    delta = phase.delta(snap)

    simulated = copy.deepcopy(cache)
    for _ in range(7):
        _steady_iteration(simulated)
    phase.advance(delta, 7)
    np.testing.assert_array_equal(cache._pos, simulated._pos)
    np.testing.assert_array_equal(cache._last, simulated._last)
    assert hierarchy_digest(cache) == hierarchy_digest(simulated)


# ---------------------------------------------------------------------- #
# union_plan: per-shard readiness → union plan
# ---------------------------------------------------------------------- #


def _payload(ready_exact, ready_eps, steady):
    return {
        "ready_exact": ready_exact, "ready_eps": ready_eps,
        "steady": steady, "breaks": 0, "disarmed": False, "disarms": 0,
    }


def test_union_plan_prefers_exact_over_eps():
    shards = [_payload(True, True, 4), _payload(True, True, 3)]
    assert union_plan(shards) == ("exact", 3)


def test_union_plan_eps_fallback():
    # One shard is exact ready, the other only ε ready: the union can
    # only arm in ε mode.
    shards = [_payload(True, True, 4), _payload(False, True, 2)]
    assert union_plan(shards) == ("eps", 2)


def test_union_plan_requires_every_shard():
    ready = _payload(True, True, 5)
    assert union_plan([ready, None]) is None
    assert union_plan([]) is None
    assert union_plan([ready, _payload(False, False, 0)]) is None


def test_summed_spread_adds_shards_before_the_spread():
    # Per iteration, two columns. Shard 0 barely samples column 0
    # ([0, 3] alone spreads by exactly 1.0); added to shard 1's, the
    # run's sums are flat.
    shard0 = [[0.0, 10.0], [3.0, 10.0]]
    shard1 = [[100.0, 20.0], [97.0, 30.0]]
    assert summed_spread([shard0, shard1]) == relative_spread([30.0, 40.0])
    assert summed_spread([shard0]) == 1.0
    # No monitor sums (exact mode, no window) declare nothing.
    assert summed_spread([None, None]) == 0.0


def test_summed_spread_uses_the_common_trailing_iterations():
    longer = [[50.0], [1.0], [2.0]]
    shorter = [[2.0], [1.0]]
    assert summed_spread([longer, shorter]) == 0.0
    assert summed_spread([longer]) == relative_spread([50.0, 1.0, 2.0])


# ---------------------------------------------------------------------- #
# adapter lookup: the one support check
# ---------------------------------------------------------------------- #


def test_only_a_plain_profiler_has_an_adapter():
    """The heatmap's per-page dicts are not recorded, and a subclass
    may attribute otherwise (the per-chunk reference does)."""
    dear = lambda: create_mechanism("DEAR", 1)  # noqa: E731
    assert isinstance(monitor_adapter(NumaProfiler(dear())), ProfilerPhase)
    for monitor in (NumaProfiler(dear(), heatmap=True),
                    ImmediateProfiler(dear()), Monitor()):
        assert monitor_adapter(monitor) is None


def test_monitor_without_adapter_keeps_the_run_live(monkeypatch):
    ref_result, _ = _run_dear(monkeypatch, extrapolate=False, heatmap=True)
    result, engine = _run_dear(monkeypatch, extrapolate=True, heatmap=True)
    _assert_results_equal(ref_result, result)
    report = engine.phase_report
    assert report["iterations"] == report["simulated"] > 0
    assert report["coverage_pct"] == 0.0
