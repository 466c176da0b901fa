"""Cold-step builds share products between chunks with equal inputs.

Eight threads sweep one page each of an interleaved array, so every
chunk of a step has the same fetch geometry, while page owners
alternate between the two domains. Within one build:

* the step's fetch products are built once and handed, read-only, to
  every chunk;
* DRAM fetch targets are built once per distinct page-owner runs, and
  DRAM fetch latencies once per (accessor domain, stream flags, fetch
  targets): chunks that differ only in their page owners get their own
  targets and latencies, never a sibling's;
* the memo charges a shared array once.

The per-chunk reference engine still agrees at every memo budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.machine import presets
from repro.machine.latency import LatencyModel
from repro.machine.pagetable import PlacementPolicy
from repro.runtime import ExecutionEngine, Monitor
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AffineChunk, sweep_chunk
from repro.runtime.engine import LazyChunkView
from repro.runtime.memo import _nbytes
from repro.runtime.program import Region, RegionKind
from repro.runtime.thread import BindingPolicy
from repro.units import PAGE_SIZE

from tests.test_step_reference import BUDGETS, PerChunkReference

THREADS = 8
PAGE_ELEMS = PAGE_SIZE // 8


class PageSlices:
    """Thread ``t`` sweeps page ``t`` of an array interleaved over domains.

    ``skew`` starts thread ``t``'s page ``t * skew`` elements late and
    ``policy`` places the array, so slices can cross page boundaries at
    different points of equally placed pages.
    """

    name = "page_slices"

    def __init__(
        self, repeat: int = 1, skew: int = 0,
        policy=PlacementPolicy.INTERLEAVE, domains=None,
    ) -> None:
        self.repeat = repeat
        self.skew = skew
        self.policy = policy
        self.domains = domains

    def setup(self, ctx) -> None:
        ctx.heap.malloc(
            (THREADS + 1) * PAGE_SIZE, "a", (SourceLoc("main"),),
            policy=self.policy, domains=self.domains,
        )

    def regions(self, ctx):
        a = ctx.var("a")

        def sweep(ctx, tid):
            yield sweep_chunk(
                a, tid * (PAGE_ELEMS + self.skew), PAGE_ELEMS,
                SourceLoc("sweep", "s.c", 1),
            )

        return [
            Region(
                "sweep._omp", RegionKind.PARALLEL, sweep,
                SourceLoc("sweep._omp"), repeat=self.repeat,
            )
        ]


class ViewRecorder(Monitor):
    """Keeps every step's views."""

    def __init__(self) -> None:
        self.steps = []

    def on_step(self, views):
        self.steps.append(list(views))
        return [0.0] * len(views)


def _engine(engine_cls=ExecutionEngine, **kwargs):
    # Two domains of four cores: threads 0-3 run on domain 0, 4-7 on 1.
    machine = presets.generic(n_domains=2, cores_per_domain=4)
    return engine_cls(
        machine, PageSlices(**kwargs.pop("program", {})), THREADS,
        binding=BindingPolicy.COMPACT, **kwargs,
    )


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _traced_run(engine):
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        engine.run()
    finally:
        obs.set_tracer(old)
    return tracer.counters


def test_equal_geometry_builds_fetch_products_once(monkeypatch):
    fetches = _count_calls(monkeypatch, AffineChunk, "fetch_products")
    builds = _count_calls(monkeypatch, ExecutionEngine, "_build_pure")
    counters = _traced_run(_engine())
    assert len(builds) == 1
    assert len(fetches) == 1
    assert counters["engine.build.shared_fetch"] == THREADS - 1


def test_memo_charges_a_shared_array_once(monkeypatch):
    built = []
    original = ExecutionEngine._build_pure

    def keep(self, *args):
        built.append(original(self, *args))
        return built[-1]

    monkeypatch.setattr(ExecutionEngine, "_build_pure", keep)
    _engine().run()
    (pure,) = built
    assert pure.nbytes == pure.chunk_fetch[0].nbytes + pure.chunk_fidx[0].nbytes
    lat = np.zeros(4)
    assert _nbytes([lat, None, lat], lat) == lat.nbytes


def test_shared_products_are_read_only():
    monitor = ViewRecorder()
    _engine(monitor=monitor).run()
    (views,) = monitor.steps
    assert all(isinstance(v, LazyChunkView) for v in views)
    first = views[0]
    for v in views:
        assert v._fetch_idx is first._fetch_idx
        assert v._summ.fetch is first._summ.fetch
        for arr in (v._fetch_idx, v._summ.fetch, v._fetch_lat):
            assert not arr.flags.writeable
    with pytest.raises(ValueError):
        first._summ.fetch[0] = False
    with pytest.raises(ValueError):
        first._fetch_lat[0] = 0.0


def test_latency_key_separates_page_owners(monkeypatch):
    latencies = _count_calls(monkeypatch, LatencyModel, "dram_fetch_latencies")
    monitor = ViewRecorder()
    counters = _traced_run(_engine(monitor=monitor))
    (views,) = monitor.steps
    owners = [int(v._fetch_targets[0]) for v in views]
    assert [v.domain for v in views] == [0] * 4 + [1] * 4
    assert owners == [0, 1] * 4
    # Equal geometry, four distinct (accessor, owner) latency inputs.
    assert len(latencies) == 4
    assert counters["engine.build.shared_latency"] == THREADS - 4
    for v in views:
        for w in views:
            same = (v.domain, owners[v.tid]) == (w.domain, owners[w.tid])
            assert (v._fetch_lat is w._fetch_lat) == same
    # Threads 0 and 1 share an accessor but not a page owner.
    assert not np.array_equal(views[0]._fetch_lat, views[1]._fetch_lat)


@pytest.mark.parametrize("memo_bytes", BUDGETS)
def test_shared_builds_match_per_chunk_reference(memo_bytes):
    want = _engine(PerChunkReference, memoize=False, program={"repeat": 3}).run()
    got = _engine(memo_bytes=memo_bytes, program={"repeat": 3}).run()
    assert got.dram_accesses == want.dram_accesses > 0
    assert got.remote_dram_accesses == want.remote_dram_accesses > 0
    assert np.array_equal(got.domain_dram_requests, want.domain_dram_requests)
    assert np.array_equal(got.domain_traffic, want.domain_traffic)
    assert got.wall_cycles == pytest.approx(want.wall_cycles, rel=1e-9)
    assert got.thread_busy_cycles == pytest.approx(
        want.thread_busy_cycles, rel=1e-9
    )


def test_equal_page_owners_share_one_target_array():
    monitor = ViewRecorder()
    counters = _traced_run(_engine(monitor=monitor))
    (views,) = monitor.steps
    owners = [int(v._fetch_targets[0]) for v in views]
    assert owners == [0, 1] * 4
    # Two distinct owner runs: one read-only target array each.
    assert counters["engine.build.shared_targets"] == THREADS - 2
    for v in views:
        assert not v._fetch_targets.flags.writeable
        for w in views:
            same = owners[v.tid] == owners[w.tid]
            assert (v._fetch_targets is w._fetch_targets) == same
    with pytest.raises(ValueError):
        views[0]._fetch_targets[0] = 1


def test_runs_split_at_different_pages_share_targets(monkeypatch):
    """Slices of one bound array cross page boundaries at different
    points: their page runs differ, their targets do not, so they share
    one target array and one latency build per accessor domain."""
    latencies = _count_calls(monkeypatch, LatencyModel, "dram_fetch_latencies")
    monitor = ViewRecorder()
    counters = _traced_run(_engine(
        monitor=monitor,
        program={"skew": 8, "policy": PlacementPolicy.BIND, "domains": [0]},
    ))
    (views,) = monitor.steps
    runs = {
        tuple(v.chunk.fetch_page_runs(v._fetch_idx, PAGE_SIZE)[1].tolist())
        for v in views
    }
    assert len(runs) > 1
    first = views[0]
    for v in views:
        assert v._fetch_targets is first._fetch_targets
        assert not v._fetch_targets.any()
    assert counters["engine.build.shared_targets"] == THREADS - 1
    assert len(latencies) == 2  # accessor domains 0 and 1


def test_memo_charges_a_shared_target_array_once(monkeypatch):
    built = []
    original = ExecutionEngine._build_variant

    def keep(self, *args):
        built.append(original(self, *args))
        return built[-1]

    monkeypatch.setattr(ExecutionEngine, "_build_variant", keep)
    _engine().run()
    (var,) = built
    distinct = {id(t): t for t in var.dram_targets}
    assert len(distinct) == 2
    assert var.nbytes == (
        sum(t.nbytes for t in distinct.values()) + var.traffic.nbytes
    )
