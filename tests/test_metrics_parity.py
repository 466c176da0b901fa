"""Golden parity: the metrics plane is invisible in simulated results.

``MetricsRecorder.sample`` is a host-time read-only observer of the
tracer — attaching it must never perturb a single simulated quantity.
The contract: every ``RunResult`` field and every archived profile
metric is bit-identical (``==``, no tolerances) with metrics recording
on or off, serially and at 1/2/4 workers, on all four paper workloads,
with extrapolation engaged so the skip-branch sampling path runs too.

Modeled on ``tests/test_phase_parity.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.machine import presets
from repro.parallel import ParallelEngine, sharding_supported
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec
from tests.test_phase_parity import (
    _assert_archives_equal,
    _assert_results_equal,
)

SCALE = 0.02
THREADS = 8
WORKLOADS = ["lulesh", "amg", "blackscholes", "umt"]

_ref_cache: dict[str, tuple] = {}


def _machine_factory():
    return presets.PRESETS["generic"]()


def _profiler():
    # Deterministic mechanism so extrapolation runs in exact mode and
    # any metrics-induced perturbation shows up as a hard mismatch.
    return NumaProfiler(create_mechanism("DEAR", 1))


def _run_serial(workload: str):
    build = RunSpec(workload, scale=SCALE).program
    profiler = _profiler()
    engine = ExecutionEngine(
        _machine_factory(), build(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT,
        memoize=True, extrapolate=True,
    )
    return engine.run(), profiler.archive


def _run_sharded(workload: str, n_workers: int):
    build = RunSpec(workload, scale=SCALE).program
    par = ParallelEngine(
        _machine_factory, build, THREADS,
        n_workers=n_workers,
        binding=BindingPolicy.COMPACT,
        monitor_factory=_profiler,
        memoize=True,
        extrapolate=True,
    )
    return par.run(), par.archive


def _with_metrics(fn):
    """Run ``fn`` under a private enabled tracer carrying a recorder."""
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        tracer.metrics = obs.MetricsRecorder()
        out = fn()
    finally:
        obs.set_tracer(old)
    return out, tracer.metrics


def _ref(workload: str):
    """Metrics-off serial run: the golden result (tracer fully off)."""
    if workload not in _ref_cache:
        _ref_cache[workload] = _run_serial(workload)
    return _ref_cache[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_serial_metrics_on_is_bit_identical(workload):
    ref_result, ref_archive = _ref(workload)
    (result, archive), mx = _with_metrics(lambda: _run_serial(workload))
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    # The recorder actually observed the run, ending on a FINAL row
    # whose cumulative chunks match the result exactly.
    assert mx.n_samples > 0
    last = mx.last_values()
    assert last["engine.chunks"] == result.total_chunks
    assert last["engine.accesses"] == result.total_accesses
    assert doc_flags_end_final(mx)


def doc_flags_end_final(mx) -> bool:
    flags = mx.export()["columns"]["flags"]
    return bool(flags) and flags[-1] == obs.FLAG_FINAL


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_metrics_on_is_bit_identical(workload, n_workers):
    ref_result, ref_archive = _ref(workload)
    (result, archive), mx = _with_metrics(
        lambda: _run_sharded(workload, n_workers)
    )
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    assert mx.n_samples > 0
    # Parent samples carry the merged cumulative totals.
    assert mx.last_values()["engine.chunks"] == result.total_chunks
    if n_workers > 1:
        # Worker series were stitched in shard order.
        assert mx.tracks == ["main"] + [f"w{i}" for i in range(n_workers)]


@pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)
def test_sharded_merge_is_deterministic():
    def export_once():
        (_result, _archive), mx = _with_metrics(
            lambda: _run_sharded("blackscholes", 2)
        )
        doc = mx.export()
        # Host timestamps differ run to run; the structure must not.
        del doc["columns"]["ts_ns"]
        del doc["series"]["engine.rate.chunks_per_s"]
        return doc

    a, b = export_once(), export_once()
    assert a["tracks"] == b["tracks"]
    assert a["regions"] == b["regions"]
    assert a["columns"] == b["columns"]
    assert list(a["series"]) == list(b["series"])
    for name in a["series"]:
        va, vb = a["series"][name], b["series"][name]
        assert [x for x in va if x == x] == [x for x in vb if x == x], name
