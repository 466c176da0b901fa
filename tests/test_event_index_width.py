"""Event indices at 32 bits: every consumer widens before it computes.

``EventSamplingMechanism._step_events`` holds a step's chunk-local
trigger-event indices as int32 when every chunk of the step has fewer
than 2**31 accesses (:func:`event_index_dtype`). At period 1 that array
is the selection, so it reaches MRK's rate cap, ``gather_samples``,
``SampleGather``, ``addrs_at`` and ``latencies_at``. Under numpy 2 an
int32 index times a stride stays int32, so a consumer that multiplied
before widening would wrap. The workload here makes that product pass
2**31: sweeps with a 1 MiB stride over 2,200 elements of a heap
variable based at 2**40, in both directions, plus explicit chunks.
Every access is a DRAM miss, so events run to each chunk's last
access. Selections, sampled addresses and latencies, and the whole
attributed profile must equal a run with the indices forced to int64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.io import save_archive
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.profiler import NumaProfiler
from repro.profiler import profiler as profiler_mod
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import indexed_chunk, sweep_chunk
from repro.runtime.heap import STATIC_BASE
from repro.runtime.program import Region, RegionKind
from repro.runtime.thread import BindingPolicy
from repro.sampling import DEAR, MRK, PEBSLL
from repro.sampling import base as sampling_base
from repro.sampling.base import event_index_dtype

STRIDE_ELEMS = 1 << 17  # 1 MiB between accesses
N = 2_200  # (N - 1) MiB > 2**31 bytes
THREADS = 4

MECHS = {
    # A cap that thins: MRK keeps far fewer samples than its events.
    "MRK": lambda: MRK(1, max_rate=2e4),
    "DEAR": lambda: DEAR(1),
    "PEBS-LL": lambda: PEBSLL(3),
}


class WideSweeps:
    """Each thread sweeps the variable forwards and backwards with a
    1 MiB stride and reads scattered elements near its end."""

    name = "wide_sweeps"

    def setup(self, ctx) -> None:
        ctx.heap.malloc(
            8 * STRIDE_ELEMS * (N + THREADS), "a", (SourceLoc("main"),),
            policy=PlacementPolicy.INTERLEAVE,
        )

    def regions(self, ctx):
        a = ctx.var("a")
        ip = SourceLoc("wide", "w.c", 1)
        last = STRIDE_ELEMS * (N + THREADS) - 1

        def kernel(ctx, tid):
            yield sweep_chunk(a, tid, N, ip, stride_elems=STRIDE_ELEMS)
            yield sweep_chunk(
                a, last - tid, N, ip, stride_elems=-STRIDE_ELEMS
            )
            rng = np.random.default_rng(tid)
            near_end = last - rng.integers(0, 64 * STRIDE_ELEMS, size=N)
            yield indexed_chunk(a, np.sort(near_end) // 512 * 512, ip)

        return [
            Region("wide._omp", RegionKind.PARALLEL, kernel,
                   SourceLoc("wide._omp"), repeat=2)
        ]


def _run(make_mech, monkeypatch, wide: bool):
    """One profiled run; returns the archive bytes and, per step, the
    selection and the gathered samples."""
    if wide:
        monkeypatch.setattr(
            sampling_base, "event_index_dtype", lambda n_acc: np.int64
        )
    mech = make_mech()
    steps = []
    select_step = mech.select_step

    def recording_select(views):
        step = select_step(views)
        steps.append({"indices": step.indices, "counts": step.counts})
        return step

    mech.select_step = recording_select
    gather = profiler_mod.gather_samples

    def recording_gather(views, ks, n_s, idx, lat_ok):
        addrs, lat = gather(views, ks, n_s, idx, lat_ok)
        # The per-view answers, which a step without a closed-form
        # gather uses, must agree at the same indices.
        ends = np.cumsum(n_s)
        for j, k in enumerate(ks.tolist()):
            part = slice(ends[j] - n_s[j], ends[j])
            v = views[k]
            np.testing.assert_array_equal(v.chunk.addrs_at(idx[part]), addrs[part])
            if lat_ok:
                np.testing.assert_array_equal(v.latencies_at(idx[part]), lat[part])
        steps[-1].update(addrs=addrs, lat=lat)
        return addrs, lat

    monkeypatch.setattr(profiler_mod, "gather_samples", recording_gather)
    profiler = NumaProfiler(mech)
    ExecutionEngine(
        presets.generic(n_domains=2, cores_per_domain=2), WideSweeps(),
        THREADS, binding=BindingPolicy.SCATTER, monitor=profiler,
    ).run()
    monkeypatch.undo()
    return mech, steps, profiler.archive


@pytest.mark.parametrize("name", list(MECHS))
def test_int32_event_indices_equal_the_int64_path(name, monkeypatch, tmp_path):
    narrow, got, archive = _run(MECHS[name], monkeypatch, wide=False)
    wide, want, wide_archive = _run(MECHS[name], monkeypatch, wide=True)
    assert len(got) == len(want) > 0
    sampled = [s for s in got if s["indices"].size]
    assert sampled and all(s["indices"].dtype == np.int32 for s in sampled)
    assert all(s["indices"].dtype == np.int64 for s in want if s["indices"].size)
    # Some sample's offset from its sweep's start passes 2**31 bytes.
    top = max(int(s["indices"].max()) for s in sampled)
    assert top * 8 * STRIDE_ELEMS >= 2**31
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a["indices"], b["indices"])
        np.testing.assert_array_equal(a["counts"], b["counts"])
        if a["indices"].size:
            assert a["addrs"].dtype == np.int64
            np.testing.assert_array_equal(a["addrs"], b["addrs"])
            assert (a["addrs"] > STATIC_BASE).all()
            if a["lat"] is not None or b["lat"] is not None:
                np.testing.assert_array_equal(a["lat"], b["lat"])
    assert narrow.state_digest() == wide.state_digest()
    assert narrow.total_samples == wide.total_samples
    if name == "MRK":
        assert 0 < narrow.total_samples < narrow.total_events / 4
    paths = [save_archive(a, tmp_path / f"{i}.json")
             for i, a in enumerate((archive, wide_archive))]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_event_index_dtype_follows_the_largest_chunk():
    assert event_index_dtype([0, 5, 2**31 - 1]) == np.int32
    assert event_index_dtype(np.array([2**31 - 1], dtype=np.int64)) == np.int32
    assert event_index_dtype([3, 2**31]) == np.int64
    assert event_index_dtype(np.array([1, 2**40], dtype=np.int64)) == np.int64
    assert event_index_dtype([]) == np.int32
