"""Shard worker: one process's slice of a sharded execution.

Each worker process holds an :class:`~repro.runtime.engine.ExecutionEngine`
reassigned to shard ``k`` of ``n`` — it owns the simulated threads with
``tid % n == k`` — and answers the pool backend's broadcast rounds (see
:mod:`repro.parallel.engine`) by calling the engine's round methods.
This module is process plumbing only: the pipeline is the engine's, the
loop the run driver's.

Determinism contract (the reason serial and sharded runs are
bit-identical, enforced by ``tests/test_parallel_parity.py``):

* every worker builds the *same* simulated state from the parent's
  factories (machine, program, heap layout, thread binding), so
  addresses and segments agree across processes;
* page-table mutations are **replicated**: each region iteration's
  first-touch/unprotect events from every shard are merged by the
  parent, sorted into serial ``(step, tid)`` order, and replayed by
  every worker against its own page-table copy — so placement lookups
  (``seg.domains``) agree everywhere, while only the owning shard
  attributes the trap to its monitor;
* the per-step contention inflation is computed by the driver from
  merged per-step domain traffic and broadcast, so every worker prices
  its chunks under the same inflation;
* per-thread state (sampling carries, per-thread RNG streams, profiler
  accumulator rows, cycle/overhead accumulation) is keyed by tid and
  never crosses shards.

Rounds: ``start`` once, then per live region iteration
``gen_iteration`` → ``classify_iteration`` (classify every step) →
``finish_iteration`` (finish every step, close the iteration), or
``extrapolate_iterations`` for skipped ones, and ``finish_run`` once.
Each worker also samples its own shard's metrics series.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.obs.stitch import export_state
from repro.runtime.driver import INT_FIELDS, totals_values


#: Seconds a worker waits for its siblings at the per-round barrier
#: before declaring the round broken (a sibling died or hung).
_BARRIER_TIMEOUT_S = 600.0

#: Per-process worker state installed by :func:`_init_worker`.
_WORKER: dict = {}


# ---------------------------------------------------------------------- #
# rounds
# ---------------------------------------------------------------------- #


def _gen_iteration(engine, region_idx: int, iteration: int) -> dict:
    engine.begin_iteration(region_idx, iteration)
    _WORKER["at"] = (engine._regions[region_idx].name, iteration)
    return engine.enter_region()


def _classify_iteration(engine, events: dict, n_steps: int):
    """Replay every shard's page events and classify each step.

    Returns the shard's per-step DRAM request matrix
    ``(n_steps, n_domains)``.
    """
    engine.set_page_events(events)
    requests = np.zeros((n_steps, engine.machine.n_domains), dtype=np.int64)
    for s in range(n_steps):
        step_requests = engine.classify_step(s)
        if step_requests is not None:
            requests[s] = step_requests
    return requests


def _finish_iteration(engine, inflation: np.ndarray) -> dict:
    """Finish each step under the merged inflation; close the iteration."""
    for s in range(len(inflation)):
        engine.finish_step(s, inflation[s])
    engine.exit_region()
    payload = engine.end_iteration()
    region, iteration = _WORKER["at"]
    _sample(payload["ints"], obs.FLAG_ITERATION | payload["flags"],
            region, iteration)
    return payload


def _extrapolate_iterations(engine, region_idx, n_skip, release,
                            mode) -> dict:
    payload = engine._phase.extrapolate(region_idx, n_skip, release, mode)
    _WORKER["totals"]["skipped"] += n_skip
    _sample(payload["ints"], obs.FLAG_EXTRAPOLATED,
            engine._regions[region_idx].name, -1)
    return payload


def _finish_run(engine) -> dict:
    """Flush the monitor and ship this shard's results.

    The archive metadata shell travels alongside the owned
    :class:`ThreadProfile` objects so the parent can assemble one
    :class:`ProfileArchive` (see ``analysis.merge.
    assemble_shard_archive``); the monitor flushes with ``result=None``
    because only the parent holds the merged :class:`RunResult`.
    """
    payload = engine.finish_run()
    monitor = engine.monitor
    if monitor is not None:
        monitor.on_run_end(None)
    payload["archive_meta"] = None
    payload["profiles"] = {}
    archive = getattr(monitor, "archive", None)
    if archive is not None:
        payload["archive_meta"] = {
            "program": archive.program,
            "machine_desc": archive.machine_desc,
            "n_domains": archive.n_domains,
            "mechanism_name": archive.mechanism_name,
            "capabilities": archive.capabilities,
        }
        payload["profiles"] = {
            tid: prof
            for tid, prof in archive.profiles.items()
            if engine.owns(tid)
        }
    tr = obs.TRACER
    payload["telemetry"] = export_state(tr) if tr.enabled else None
    return payload


_ROUNDS = {
    "start": lambda engine: engine.start(),
    "gen_iteration": _gen_iteration,
    "classify_iteration": _classify_iteration,
    "finish_iteration": _finish_iteration,
    "extrapolate_iterations": _extrapolate_iterations,
    "finish_run": _finish_run,
}


def _sample(ints: dict, flags: int, region: str, iteration: int) -> None:
    """One row of this shard's metrics series (cumulative shard totals)."""
    tr = obs.TRACER
    mx = getattr(tr, "metrics", None) if tr.enabled else None
    if mx is None:
        return
    totals = _WORKER["totals"]
    for k in INT_FIELDS:
        totals[k] += ints[k]
    mx.sample(tr, flags=flags, region=region, iteration=iteration,
              values=totals_values(totals, totals["skipped"]))


# ---------------------------------------------------------------------- #
# process-pool plumbing
# ---------------------------------------------------------------------- #


def _init_worker(claim_queue, barrier, spec) -> None:
    """Pool initializer: claim a shard id and build this shard's engine.

    Runs once per worker process. The claim queue hands out shard ids
    atomically; the barrier is stored for round dispatch (see
    :func:`_round_task`). ``spec`` carries the parent's engine factory
    by fork inheritance, so nothing in it need be picklable.
    """
    shard = claim_queue.get()
    tr = obs.TRACER
    if tr.enabled:
        # The forked tracer carries the parent's events (and metrics
        # recorder); restart it so this process records only its own, on
        # its own epoch (shifted back onto the parent timeline at stitch
        # time). Capture the recorder capacity before the clear drops it.
        capacity = tr.metrics.capacity if tr.metrics is not None else None
        tr.enable(clear=True)
        if capacity is not None:
            tr.metrics = obs.MetricsRecorder(capacity=capacity)
    make_engine, monitor_factory, n_shards = spec
    engine = make_engine(
        monitor_factory() if monitor_factory is not None else None
    )
    engine.shard_id = shard
    engine.n_shards = n_shards
    _WORKER["engine"] = engine
    _WORKER["shard"] = shard
    _WORKER["barrier"] = barrier
    _WORKER["totals"] = dict.fromkeys(INT_FIELDS + ("skipped",), 0)


def _round_task(method: str, args: tuple):
    """One worker's share of a broadcast round.

    The parent submits exactly ``n_shards`` of these per round; the
    barrier makes every worker process take exactly one (a process can
    only pass the barrier while holding a task, so N simultaneous
    holders means N distinct processes). Results carry the shard id so
    the parent can order them deterministically.
    """
    _WORKER["barrier"].wait(timeout=_BARRIER_TIMEOUT_S)
    engine = _WORKER["engine"]
    tr = obs.TRACER
    fn = _ROUNDS[method]
    # finish_run snapshots the telemetry itself, so wrapping it in a
    # span would export that span still open (a dangling B event).
    if tr.enabled and method != "finish_run":
        with tr.span(f"shard.{method}", "shard"):
            payload = fn(engine, *args)
    else:
        payload = fn(engine, *args)
    return _WORKER["shard"], payload
