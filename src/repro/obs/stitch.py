"""Cross-process stitching: one timeline from a sharded run's workers.

A worker process ships :func:`export_state` of its tracer back with its
last round, and the parent stitches each snapshot into its own tracer
with :func:`absorb`. Only sharded runs load this module.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer

#: Per-gauge merge policy applied by :func:`absorb` when stitching
#: worker snapshots: ``"sum"`` for gauges that are per-process resource
#: sizes (each shard holds its own slice), ``"max"`` for run-level
#: properties where any shard's value bounds the run, ``"last"`` to keep
#: the absorbed snapshot's value (explicit opt-in to overwrite).
GAUGE_MERGE: dict[str, str] = {
    "engine.memo.bytes": "sum",
    "profiler.code_rows": "sum",
    "profiler.data_rows": "sum",
    "profiler.var_rows": "sum",
    "profiler.bin_rows": "sum",
    "profiler.range_blocks": "sum",
    "engine.phase.epsilon": "max",
    "engine.phase.coverage_pct": "max",
}

#: Gauges without an explicit annotation merge with ``max`` — unlike the
#: old last-write-wins behaviour, the result cannot depend on the order
#: worker snapshots are absorbed in.
DEFAULT_GAUGE_MERGE = "max"


def export_state(tracer: Tracer) -> dict:
    """Snapshot collected telemetry for shipping to another process.

    The returned dict (events, counters, gauges, span aggregates,
    and the tracer's epoch) is what a worker process sends back so
    the parent can :func:`absorb` it into one timeline.
    """
    return {
        "events": list(tracer.events),
        "counters": dict(tracer.counters),
        "gauges": dict(tracer.gauges),
        "self_ns": dict(tracer.self_ns),
        "total_ns": dict(tracer.total_ns),
        "calls": dict(tracer.calls),
        "epoch_ns": tracer._epoch_ns,
        "metrics": (
            tracer.metrics.export() if tracer.metrics is not None else None
        ),
    }


def absorb(tracer: Tracer, state: dict, track_label: str) -> None:
    """Stitch another process's :func:`export_state` onto ``tracer``.

    Timestamps shift by the epoch difference — ``perf_counter_ns``
    is CLOCK_MONOTONIC on Linux, comparable across processes — so
    worker spans land at their true wall-clock position. Events on
    the foreign ``"harness"`` track move to ``track_label`` (e.g.
    ``"w0"``); numeric simulated-thread tracks keep their ids, which
    are globally unique because shards own disjoint thread sets.
    Counters and span aggregates sum; gauges merge per the
    :data:`GAUGE_MERGE` policy (``max`` unless annotated otherwise),
    so the merged value never depends on absorb order. An attached
    metrics recorder absorbs the snapshot's time series, if any.
    """
    shift = state["epoch_ns"] - tracer._epoch_ns
    for ph, name, cat, track, ts_ns, args in state["events"]:
        if track == "harness":
            track = track_label
        tracer.events.append((ph, name, cat, track, ts_ns + shift, args))
    for key, value in state["counters"].items():
        tracer.counters[key] = tracer.counters.get(key, 0) + value
    for key, value in state["gauges"].items():
        if key not in tracer.gauges:
            tracer.gauges[key] = value
            continue
        policy = GAUGE_MERGE.get(key, DEFAULT_GAUGE_MERGE)
        if policy == "sum":
            tracer.gauges[key] += value
        elif policy == "last":
            tracer.gauges[key] = value
        else:  # "max"
            tracer.gauges[key] = max(tracer.gauges[key], value)
    for src_name in ("self_ns", "total_ns", "calls"):
        dst = getattr(tracer, src_name)
        for key, value in state[src_name].items():
            dst[key] = dst.get(key, 0) + value
    series = state.get("metrics")
    if series is not None and tracer.metrics is not None:
        tracer.metrics.absorb(series, track_label, shift)
