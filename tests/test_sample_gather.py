"""The engine's closed-form sample gather against per-view answers.

``SampleGather`` computes a step's sampled addresses and latencies from
each sweep's ``(first, stride)`` and the latency variant's buffer,
without asking the views. For every access of every memory chunk it
must return what the view itself answers (``chunk.addrs_at``,
``latencies_at``) and what its materialized ``latencies`` hold: over
positive, negative, zero, sub-line, line and page strides, explicit
chunks, cache-level and DRAM fetches, on every machine preset (their
cache-level latencies are integers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.runtime import ExecutionEngine, Monitor
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import indexed_chunk, sweep_chunk
from repro.runtime.engine import LazyChunkView, gather_samples
from repro.runtime.program import Region, RegionKind
from repro.runtime.thread import BindingPolicy

#: Element strides (8-byte elements): sub-line, line, page and beyond,
#: negative, zero.
STRIDES = [1, 3, 8, 9, 512, 700, -1, -5, -8, 0]
N = 600


class Sweeps:
    """Thread ``t`` runs every stride over its own slice, plus one
    indirect chunk; repeated so later iterations hit L2/L3."""

    name = "sweeps"

    def setup(self, ctx) -> None:
        ctx.heap.malloc(
            8 * 8 * N * 800, "a", (SourceLoc("main"),),
            policy=PlacementPolicy.INTERLEAVE,
        )

    def regions(self, ctx):
        a = ctx.var("a")
        ip = SourceLoc("sweep", "s.c", 1)

        def kernel(ctx, tid):
            base = tid * N * 800
            for stride in STRIDES:
                start = base + (N * 700 if stride < 0 else 0) + tid % 3
                yield sweep_chunk(a, start, N, ip, stride_elems=stride)
            rng = np.random.default_rng(tid)
            yield indexed_chunk(a, base + rng.integers(0, N * 700, size=N), ip)

        return [
            Region("sweep._omp", RegionKind.PARALLEL, kernel,
                   SourceLoc("sweep._omp"), repeat=3)
        ]


class GatherChecker(Monitor):
    """Checks every access of every memory view through the gather."""

    def __init__(self) -> None:
        self.checked = 0
        self.levels = set()

    def on_step(self, views):
        ks = np.array(
            [k for k, v in enumerate(views) if isinstance(v, LazyChunkView)],
            dtype=np.int64,
        )
        if ks.size:
            n_s = views.n_acc[ks]
            idx = np.concatenate([np.arange(n) for n in n_s.tolist()])
            addrs, lat = gather_samples(views, ks, n_s, idx, True)
            assert views.gather is not None
            a = 0
            for k, n in zip(ks.tolist(), n_s.tolist()):
                v = views[k]
                np.testing.assert_array_equal(addrs[a : a + n], v.chunk.addrs)
                own = np.arange(n)
                np.testing.assert_array_equal(lat[a : a + n], v.latencies_at(own))
                np.testing.assert_array_equal(lat[a : a + n], v.latencies)
                self.levels.add(v._summ.fetch_level)
                a += n
            self.checked += a
        return [0.0] * len(views)


@pytest.mark.parametrize("preset", sorted(presets.PRESETS))
def test_gather_matches_per_view_answers(preset):
    machine = presets.PRESETS[preset]()
    monitor = GatherChecker()
    ExecutionEngine(
        machine, Sweeps(), 4, binding=BindingPolicy.SCATTER, monitor=monitor,
    ).run()
    assert monitor.checked > 0
    assert len(monitor.levels) >= 2  # DRAM and a cache level
