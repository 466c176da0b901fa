"""Heap peaks of the monitored step's per-event and per-fetch work.

Each test builds one synthetic step (no engine run), measures the
``tracemalloc`` peak of one call above the heap it starts from, and
bounds it in bytes per event or per fetch:

* a period-1 MRK ``select_step`` selects every event with no
  positions, rows or gathered copy, and its rate cap thins the kept
  samples holding at most two arrays of them at once;
* a cold ``_latency_phase`` build holds one latency group at a time,
  and a monitored one writes each group straight into one buffer.

A selection that builds positions, or a build that keeps every group
array (and concatenates them), exceeds these bounds.
"""

from __future__ import annotations

import tracemalloc
import types

import numpy as np

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM
from repro.machine.topology import DOMAIN_DTYPE
from repro.runtime.engine import ExecutionEngine, _StepMem
from repro.runtime.memo import (
    ClassifyVariant, IterationMemo, PureStep, StepRecord, StepViews,
)
from repro.sampling import MRK

#: Events of the synthetic MRK step and latency fetches of the
#: synthetic latency step (int64 indices and float64 latencies: 8 B each).
N_EVENTS = 400_000
N_FETCHES = 400_000


def _peak_bytes(fn, *args):
    """``fn(*args)`` and the traced heap peak above its starting heap."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak


class _EventView:
    """A memory chunk reduced to what event selection reads."""

    def __init__(self, tid, events, n_ins, lat_total):
        self.tid = tid
        self.chunk = types.SimpleNamespace(n_instructions=n_ins)
        self._events, self._lat_total = events, lat_total

    def demand_miss_events(self, min_latency):
        return self._events

    def latency_total(self):
        return self._lat_total


def _mrk_step(n_views=16):
    rng = np.random.default_rng(0)
    sizes = np.full(n_views, N_EVENTS // n_views)
    views = [
        _EventView(
            tid, np.sort(rng.choice(4 * n, size=n, replace=False)),
            int(rng.integers(2_000_000, 4_000_000)), float(n) * 300.0,
        )
        for tid, n in enumerate(sizes.tolist())
    ]
    return StepViews(
        views,
        np.arange(n_views, dtype=np.int64),
        np.array([v.chunk.n_instructions for v in views], dtype=np.int64),
        sizes.astype(np.int64),
    )


def _select_peak(max_rate):
    mech = MRK(1, max_rate=max_rate)
    mech.configure(presets.power7())
    views = _mrk_step()
    # The step's events are built once and kept on the step's memo; the
    # call measured is a retained step's selection.
    mech._step_events(views)
    step, peak = _peak_bytes(mech.select_step, views)
    return step, peak


def test_period_one_selection_holds_no_per_event_array():
    step, peak = _select_peak(max_rate=1e12)
    assert step.n_samples == N_EVENTS
    # Positions, rows and a gathered copy would be several int64 per
    # event; the selection holds none (under one byte per event).
    assert peak < 1 * N_EVENTS


def test_rate_cap_holds_two_arrays_of_kept_samples():
    step, peak = _select_peak(max_rate=4e6)
    kept = step.n_samples
    assert N_EVENTS // 4 < kept < N_EVENTS // 2
    # The thinned indices and one array of picks: under three int64 per
    # kept sample, against more than eleven when the cap's arithmetic
    # and the selection's positions each took arrays of their own.
    assert peak < 3 * 8 * kept


def _latency_build(monitored, n_groups=32):
    """One cold ``_latency_phase`` build over ``n_groups`` DRAM chunks of
    ``N_FETCHES / n_groups`` fetches each; returns its latency variant
    and the build's heap peak."""
    machine = presets.generic(n_domains=4, cores_per_domain=2)
    line = machine.cache.config.line_size
    rng = np.random.default_rng(1)
    n = N_FETCHES // n_groups
    pure = PureStep()
    pure.mem_idx = np.arange(n_groups)
    pure.mem = [None] * n_groups
    pure.chunk_fp = np.full(n_groups, n * line, dtype=np.int64)
    pure.n_acc = np.full(n_groups, 8 * n, dtype=np.int64)
    rec = StepRecord(None)
    rec.pure = pure
    var = ClassifyVariant()
    var.dram = var.remote_dram = 0
    var.traffic = np.zeros((4, 4), dtype=np.int64)
    var.levels = np.full(n_groups, LEVEL_DRAM)
    var.lat_group = np.arange(n_groups)
    var.lat_groups = [
        (rng.integers(0, 4, n).astype(DOMAIN_DTYPE), g % 4, g % 2 == 0, False)
        for g in range(n_groups)
    ]
    st = _StepMem(n_groups)
    st.rec, st.var = rec, var
    engine = types.SimpleNamespace(
        machine=machine, memo=IterationMemo(1 << 30),
        monitor=object() if monitored else None,
    )
    _, peak = _peak_bytes(
        ExecutionEngine._latency_phase, engine, st, np.ones(4)
    )
    return st.lat, peak


def test_unmonitored_latency_build_holds_one_group_at_a_time():
    lv, peak = _latency_build(monitored=False)
    assert lv.lat_buf is None and lv.lat_sums.size == 32
    # Every group's latencies at once (8 B per fetch) is what keeping
    # the group arrays costs; one group and its temporaries is far less.
    assert peak < 8 * N_FETCHES // 2


def test_monitored_latency_build_fills_one_buffer():
    lv, peak = _latency_build(monitored=True)
    assert lv.lat_buf.size == N_FETCHES and not lv.lat_buf.flags.writeable
    # The buffer itself plus one group, not the group arrays and their
    # concatenation (twice the buffer).
    assert peak < 1.5 * lv.lat_buf.nbytes
