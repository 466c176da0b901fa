"""The run driver under both backends: counters and failure paths.

One driver loop (:func:`repro.runtime.driver.drive`) serves the
in-process engine and the worker pool. These tests pin what that
sharing promises beyond result parity:

* the step counters (``engine.steps``, ``engine.chunks``,
  ``engine.steps_summary``) are counted once per merged step, so a traced sharded run reports what a serial one
  does;
* a worker that dies mid-round fails the run quickly with
  :class:`~repro.errors.WorkerError`, and ends the CLI run in one
  ``error:`` line;
* a schedule firing on a region's first or final iteration, and a
  1-byte memo budget, leave extrapolated runs bit-identical to fully
  simulated ones, in process and in a worker pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.__main__ import main
from repro.errors import WorkerError
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
from tests.checks import validate_phase_report
from tests.test_phase_parity import (
    _assert_archives_equal,
    _assert_results_equal,
    _dear_factory,
    _long_sweep,
    _run_long_sweep,
    _sweep_schedule,
)

needs_fork = pytest.mark.skipif(
    not sharding_supported(), reason="platform cannot fork worker pools"
)

SCALE = 0.02
THREADS = 8
STEP_COUNTERS = ("engine.steps", "engine.chunks", "engine.steps_summary")


def _machine_factory():
    return presets.PRESETS["generic"]()


def _ibs_factory():
    return NumaProfiler(create_mechanism("IBS", 512))


def _traced_counters(run) -> dict:
    """Run ``run`` under a private enabled tracer; its counters."""
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        run()
    finally:
        obs.set_tracer(old)
    return tracer.counters


# ---------------------------------------------------------------------- #
# step counters
# ---------------------------------------------------------------------- #


@needs_fork
def test_step_counters_equal_serial_and_sharded():
    build = RunSpec("lulesh", scale=SCALE).program
    serial = _traced_counters(lambda: ExecutionEngine(
        _machine_factory(), build(), THREADS, monitor=_ibs_factory(),
        binding=BindingPolicy.COMPACT,
    ).run())
    sharded = _traced_counters(lambda: ParallelEngine(
        _machine_factory, build, THREADS, n_workers=2,
        binding=BindingPolicy.COMPACT, monitor_factory=_ibs_factory,
        force_sharded=True,
    ).run())
    got = {k: sharded.get(k, 0) for k in STEP_COUNTERS}
    want = {k: serial.get(k, 0) for k in STEP_COUNTERS}
    assert got == want
    assert all(want[k] > 0 for k in STEP_COUNTERS), want
    # Pure-compute steps have no memory chunk to classify.
    assert want["engine.steps"] >= want["engine.steps_summary"]


# ---------------------------------------------------------------------- #
# (a) a worker dies inside a kernel mid-round
# ---------------------------------------------------------------------- #


class _DyingProgram:
    """A parallel body whose thread 1 kills its worker process outright.

    ``os._exit`` skips every cleanup handler — the worker vanishes
    mid-round. Only worker processes call kernels; the guard on the test
    process's pid keeps it safe.
    """

    name = "dying"

    def __init__(self, parent_pid: int, n_elems: int = 20_000) -> None:
        self.parent_pid = parent_pid
        self.n_elems = n_elems

    def setup(self, ctx) -> None:
        ctx.heap.malloc(self.n_elems * 8, "a", (SourceLoc("main"),))

    def regions(self, ctx):
        a = ctx.var("a")

        def init(ctx, tid):
            yield sweep_chunk(
                a, 0, self.n_elems, SourceLoc("init_loop"), is_store=True
            )

        def compute(ctx, tid):
            if tid == 1 and os.getpid() != self.parent_pid:
                os._exit(3)
            lo, hi = ctx.partition(self.n_elems, tid)
            if hi > lo:
                yield sweep_chunk(a, lo, hi - lo, SourceLoc("compute_loop"))

        return [
            Region("init", RegionKind.SERIAL, init, SourceLoc("init")),
            Region(
                "compute._omp", RegionKind.PARALLEL, compute,
                SourceLoc("compute._omp"), repeat=4,
            ),
        ]


@needs_fork
def test_worker_death_mid_round_raises_and_leaks_nothing():
    pid = os.getpid()
    par = ParallelEngine(
        _machine_factory, lambda: _DyingProgram(pid), THREADS, n_workers=2,
        binding=BindingPolicy.COMPACT, monitor_factory=_ibs_factory,
        force_sharded=True,
    )
    t0 = time.monotonic()
    with pytest.raises(WorkerError) as info:
        par.run()
    assert time.monotonic() - t0 < 30.0
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    # The pool's surviving workers were shut down, not left running.
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_death_in_cli_is_one_line_error(monkeypatch, capsys):
    pid = os.getpid()
    # The CLI's serial baseline runs in this process, where the guard
    # keeps the program alive; only the sharded monitored run dies.
    monkeypatch.setattr(
        RunSpec, "program", lambda self, tuning=None: _DyingProgram(pid)
    )
    t0 = time.monotonic()
    rc = main([
        "lulesh", "--scale", str(SCALE), "--threads", str(THREADS),
        "--machine", "generic", "--workers", "2", "--no-save",
    ])
    err = capsys.readouterr().err.strip()
    assert time.monotonic() - t0 < 30.0
    assert rc == 2
    assert "\n" not in err, err
    assert err.startswith("error: a shard worker process died mid-run"), err


# ---------------------------------------------------------------------- #
# (b) a schedule fires on a region's first or final iteration
# ---------------------------------------------------------------------- #


def _sharded_long_sweep(n_workers: int, schedule):
    par = ParallelEngine(
        _machine_factory, _long_sweep, THREADS, n_workers=n_workers,
        binding=BindingPolicy.COMPACT, monitor_factory=_dear_factory,
        force_sharded=True, memoize=True, extrapolate=True,
        schedule=schedule,
    )
    return par.run(), par.archive, par


@pytest.mark.parametrize("iteration", [0, 11])
@pytest.mark.parametrize("n_workers", [0, 1, 2])
def test_schedule_on_region_boundary_iteration(iteration, n_workers):
    """``n_workers=0`` is the in-process engine."""
    if n_workers and not sharding_supported():
        pytest.skip("platform cannot fork worker pools")
    ref_result, ref_archive, ref_engine = _run_long_sweep(
        extrapolate=False, schedule=_sweep_schedule(iteration),
    )
    if n_workers:
        result, archive, engine = _sharded_long_sweep(
            n_workers, _sweep_schedule(iteration)
        )
    else:
        result, archive, engine = _run_long_sweep(
            extrapolate=True, schedule=_sweep_schedule(iteration),
        )
    assert [a.ok for a in engine.applied_actions] == [True]
    assert engine.applied_actions == ref_engine.applied_actions
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    report = engine.phase_report
    assert validate_phase_report(report) == []
    assert report["coverage_pct"] > 0


# ---------------------------------------------------------------------- #
# (c) a 1-byte memo budget under extrapolation
# ---------------------------------------------------------------------- #


def _run_dear(workload: str, n_workers: int, **kwargs):
    build = RunSpec(workload, scale=SCALE).program
    if not n_workers:
        profiler = _dear_factory()
        engine = ExecutionEngine(
            _machine_factory(), build(), THREADS, monitor=profiler,
            binding=BindingPolicy.COMPACT, **kwargs,
        )
        return engine.run(), profiler.archive, engine
    par = ParallelEngine(
        _machine_factory, build, THREADS, n_workers=n_workers,
        binding=BindingPolicy.COMPACT, monitor_factory=_dear_factory,
        force_sharded=True, **kwargs,
    )
    return par.run(), par.archive, par


@pytest.mark.parametrize("workload", ["amg", "blackscholes"])
@pytest.mark.parametrize("n_workers", [0, 2])
def test_one_byte_memo_extrapolated_matches_memo_off(workload, n_workers):
    """``n_workers=0`` is the in-process engine."""
    if n_workers and not sharding_supported():
        pytest.skip("platform cannot fork worker pools")
    ref_result, ref_archive, _ = _run_dear(workload, 0, memoize=False)
    result, archive, engine = _run_dear(
        workload, n_workers, memo_bytes=1, extrapolate=True
    )
    _assert_results_equal(ref_result, result)
    _assert_archives_equal(ref_archive, archive)
    assert validate_phase_report(engine.phase_report) == []
