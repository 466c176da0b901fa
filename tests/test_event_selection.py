"""Event mechanisms select from view event primitives, on real engine views.

MRK, DEAR and PEBS-LL find their trigger events through the views' event
primitives (``demand_miss_events`` / ``miss_events`` / ``slow_events``)
and cache each step's events on ``StepViews.memo``. These tests drive
the engine (lazy views) and check, at every step, that ``select_step``
equals sequential scalar ``select`` calls over the materialized arrays —
the reference — in indices, per-chunk counts, event totals, carries and
MRK's rate-cap budget. Retained steps hand back the same ``StepViews``
on later iterations, so the cached events are checked too. A traced
profiler run on lazy views materializes no per-access array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.engine import LazyChunkView, Monitor
from repro.runtime.thread import BindingPolicy
from repro.sampling.dear import DEAR
from repro.sampling.mrk import MRK
from repro.sampling.pebs_ll import PEBSLL
from repro.spec import RunSpec
from tests.reference.sampling import select

SCALE = 0.02
THREADS = 8
_LM = presets.PRESETS["generic"]().latency_model

MECHANISMS = {
    # max_rate as the CLI sets it: the cap drops some chunks' events.
    "MRK": lambda: MRK(2, max_rate=2e6),
    "DEAR": lambda: DEAR(7),
    "PEBS-LL": lambda: PEBSLL(5),
    # Every fetch is an event, L2 fetches included.
    "PEBS-LL-below-L2": lambda: PEBSLL(
        5, latency_threshold=(_LM.l1 + _LM.l2) / 2
    ),
    # L1 itself is above the threshold: every access is an event.
    "PEBS-LL-below-L1": lambda: PEBSLL(3, latency_threshold=_LM.l1 / 2),
}


class _SelectionChecker(Monitor):
    """Selects every step twice — step path and scalar reference."""

    def __init__(self, make_mechanism) -> None:
        self.step_mech = make_mechanism()
        self.ref_mech = make_mechanism()
        self.steps = self.cache_hits = 0
        self.lazy_views = self.eager_views = self.samples = 0

    def on_run_start(self, engine) -> None:
        self.step_mech.configure(engine.machine)
        self.ref_mech.configure(engine.machine)

    def on_step(self, views):
        self.steps += 1
        self.cache_hits += bool(views.memo)
        for v in views:
            if isinstance(v, LazyChunkView):
                self.lazy_views += 1
            elif v.chunk.n_accesses:
                self.eager_views += 1
        # The step path runs first, on views nobody has materialized.
        got = self.step_mech.select_step(views)
        want = [
            select(
                self.ref_mech, v.tid, v.chunk, v.levels, v.target_domains,
                v.latencies,
            )
            for v in views
        ]
        np.testing.assert_array_equal(
            got.indices,
            np.concatenate([b.indices for b in want]).astype(np.int64),
        )
        assert got.counts.tolist() == [b.n_samples for b in want]
        assert got.n_sampled_instructions.tolist() == [
            b.n_sampled_instructions for b in want
        ]
        assert got.n_events_total.tolist() == [
            b.n_events_total for b in want
        ]
        assert got.latency_captured == want[0].latency_captured
        assert self.step_mech._carry == self.ref_mech._carry
        assert (
            self.step_mech._extra_state_digest()
            == self.ref_mech._extra_state_digest()
        )
        self.samples += got.n_samples
        return [0.0] * len(views)


def _run(workload: str, monitor) -> ExecutionEngine:
    engine = ExecutionEngine(
        presets.PRESETS["generic"](),
        RunSpec(workload, scale=SCALE).program(), THREADS,
        monitor=monitor, binding=BindingPolicy.COMPACT,
    )
    engine.run()
    return engine


#: umt's steps fetch from L2 and DRAM, lulesh's from L3 too.
WORKLOADS = ["umt", "lulesh"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mech", list(MECHANISMS))
def test_select_step_matches_scalar_select_on_engine_views(mech, workload):
    checker = _SelectionChecker(MECHANISMS[mech])
    _run(workload, checker)
    assert checker.samples > 0
    # Later iterations of retained steps reuse the cached events.
    assert 0 < checker.cache_hits < checker.steps
    assert checker.lazy_views > 0 and checker.eager_views == 0
    if mech == "MRK":
        budget = checker.step_mech._budget
        assert budget and budget == checker.ref_mech._budget
        assert checker.step_mech.total_samples < checker.step_mech.total_events


@pytest.mark.parametrize("mech", ["MRK", "DEAR", "PEBS-LL"])
def test_traced_run_materializes_no_lazy_array(mech):
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        _run("umt", NumaProfiler(MECHANISMS[mech]()))
    finally:
        obs.set_tracer(old)
    counters = tracer.counters
    assert counters.get("engine.steps_summary", 0) > 0
    assert counters.get("sampling.samples.selected", 0) > 0
    materialized = {
        k: v for k, v in counters.items()
        if k.startswith("engine.lazy.materialized_")
    }
    assert materialized == {}
    # MRK's rate cap sums each event chunk's latencies through
    # ``latency_total``, building a per-access array it never keeps;
    # those builds are counted apart. No other mechanism makes them.
    builds = counters.get("engine.lazy.latency_sum_builds", 0)
    assert (builds > 0) == (mech == "MRK")


class _ViewCollector(Monitor):
    """Every distinct lazy view (retained steps repeat theirs)."""

    def __init__(self) -> None:
        self.views = {}

    def on_step(self, views):
        for v in views:
            if isinstance(v, LazyChunkView):
                self.views[id(v)] = v
        return [0.0] * len(views)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_lazy_event_primitives_match_materialized_arrays(workload):
    collector = _ViewCollector()
    _run(workload, collector)
    assert collector.views
    for v in collector.views.values():
        # Thresholds on the boundaries: each level's latency and the
        # chunk's own DRAM latencies, plus one below everything.
        lats = v._fetch_lat if v._fetch_lat is not None else []
        thresholds = {0.0, _LM.l1, _LM.l2, _LM.l3, *np.unique(lats)[:4]}
        tracer = obs.Tracer()
        old = obs.set_tracer(tracer)
        try:
            tracer.enable()
            total = v.latency_total()
        finally:
            obs.set_tracer(old)
        assert tracer.counters == {"engine.lazy.latency_sum_builds": 1}
        miss = v.miss_events()
        got = {
            x: (v.demand_miss_events(x), v.slow_events(x))
            for x in thresholds
        }
        assert v._lat is None and v._levels is None
        np.testing.assert_array_equal(miss, np.flatnonzero(v.levels != 0))
        assert total == float(v.latencies.sum())
        for x, (demand, slow) in got.items():
            np.testing.assert_array_equal(
                demand, np.flatnonzero(v.dram_mask & (v.latencies >= x))
            )
            np.testing.assert_array_equal(
                slow, np.flatnonzero(v.latencies > x)
            )
