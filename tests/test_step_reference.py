"""The engine's step pipeline against a per-chunk reference.

``PerChunkReference`` is a deliberately slow, obviously correct engine:
it overrides only the classify, latency and monitor phases, classifying
each memory chunk on its own with ``classify_accesses``, pricing it
with ``machine_access_latency`` (both in ``tests/reference/access.py``),
and handing every chunk to the monitor as an eager ``ChunkView``. Page
traps, accounting and the region loop are the production engine's.

The production pipeline (pure products → keyed variants → lazy views)
must reproduce it at every memo budget: the default, zero
(``memoize=False`` is the same thing) and a 1-byte budget that evicts
constantly. Integer results, merged-archive counters and CCT metrics
match exactly. Cycle floats match within ``rel=1e-9``: the pipeline
sums a chunk's latencies in closed form, which adds the same
values in a different order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.merge import merge_profiles
from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM
from repro.machine.pagetable import PlacementPolicy
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.thread import BindingPolicy
from repro.sampling import create_mechanism
from repro.spec import RunSpec
from tests.reference.access import (
    ChunkView,
    classify_accesses,
    dram_request_counts,
    machine_access_latency,
    step_views,
)

SCALE = 0.02
THREADS = 8
PERIOD = 512
#: The paper's four benchmarks (Table 2) plus the migration sweep.
WORKLOADS = ["lulesh", "amg", "blackscholes", "umt", "sweep-scheduled"]
#: Default budget, zero budget, and a budget that evicts every record.
BUDGETS = [None, 0, 1]

_EMPTY = (
    np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64), np.empty(0, dtype=bool),
    np.empty(0, dtype=bool),
)


class PerChunkReference(ExecutionEngine):
    """One chunk at a time through the machine's per-chunk primitives."""

    def _classify_phase(self, step, st, rec):
        machine = self.machine
        self._ref_chunks = {}
        st.step_requests = np.zeros(machine.n_domains, dtype=np.int64)
        for i in st.mem_idx:
            t, chunk = step[i]
            cls, targets = classify_accesses(
                machine, chunk.addrs, t.cpu, chunk.var.segment
            )
            self._ref_chunks[i] = (t, chunk, cls, targets)
            st.step_requests += dram_request_counts(
                machine, cls.levels, targets
            )

    def _latency_phase(self, st, inflation=None):
        machine = self.machine
        n_domains = machine.n_domains
        if inflation is None:
            inflation = machine.contention.inflation(
                st.step_requests, st.n_active
            )
        st.lat_sums = [0.0] * st.n_active
        st.dram = 0
        st.remote_dram = 0
        st.traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        self._ref_products = {}
        for i, (t, chunk, cls, targets) in self._ref_chunks.items():
            lat = machine_access_latency(
                machine, cls.levels, targets, t.cpu, inflation,
                sequential=cls.sequential,
                interleaved=(
                    chunk.var.segment.policy is PlacementPolicy.INTERLEAVE
                ),
            )
            dram = cls.levels == LEVEL_DRAM
            remote = targets != t.domain
            st.lat_sums[i] = float(lat.sum())
            st.dram += int(np.count_nonzero(dram))
            st.remote_dram += int(np.count_nonzero(dram & remote))
            st.traffic[t.domain] += np.bincount(
                targets[dram], minlength=n_domains
            )
            self._ref_products[i] = (cls.levels, targets, lat, dram, remote)

    def _monitor_phase(self, step, st):
        if self.monitor is None:
            return None
        views = []
        for i, (t, chunk) in enumerate(step):
            levels, targets, lat, dram, remote = self._ref_products.get(
                i, _EMPTY
            )
            path = self.callstacks[t.tid].with_leaf(chunk.ip)
            views.append(ChunkView(
                t.tid, t.cpu, t.domain, chunk, levels, targets, lat, path,
                dram, remote,
            ))
        return list(self.monitor.on_step(step_views(views)))


def _sweep_schedule():
    """A mid-run rebind of the sweep's repeated region (iteration 1)."""
    from repro.optim.schedule import MigrationStep, PolicySchedule

    schedule = PolicySchedule()
    schedule.add(
        1, 1, MigrationStep("data", PlacementPolicy.BLOCKWISE, (0, 1, 2, 3))
    )
    return schedule


def _run(workload: str, engine_cls=ExecutionEngine, **engine_kwargs):
    schedule = None
    if workload == "sweep-scheduled":
        workload, schedule = "sweep", _sweep_schedule()
    profiler = NumaProfiler(create_mechanism("IBS", PERIOD))
    engine = engine_cls(
        presets.PRESETS["generic"](),
        RunSpec(workload, scale=SCALE).program(), THREADS,
        monitor=profiler, binding=BindingPolicy.COMPACT, schedule=schedule,
        **engine_kwargs,
    )
    return engine.run(), profiler.archive, engine


_reference_cache: dict[str, tuple] = {}


def _reference(workload: str):
    if workload not in _reference_cache:
        _reference_cache[workload] = _run(
            workload, PerChunkReference, memoize=False
        )
    return _reference_cache[workload]


def _cct_flat(cct) -> dict:
    return {
        str(node.path()): dict(node.metrics)
        for node in cct.root.walk()
        if node.metrics
    }


def _assert_matches_reference(workload, res, archive, engine):
    ref, ref_archive, ref_engine = _reference(workload)
    assert res.program == ref.program
    assert res.n_threads == ref.n_threads
    assert res.total_instructions == ref.total_instructions
    assert res.total_accesses == ref.total_accesses
    assert res.total_chunks == ref.total_chunks
    assert res.dram_accesses == ref.dram_accesses
    assert res.remote_dram_accesses == ref.remote_dram_accesses
    assert np.array_equal(res.domain_dram_requests, ref.domain_dram_requests)
    assert np.array_equal(res.domain_traffic, ref.domain_traffic)
    assert res.wall_cycles == pytest.approx(ref.wall_cycles, rel=1e-9)
    assert res.thread_busy_cycles == pytest.approx(
        ref.thread_busy_cycles, rel=1e-9
    )
    assert res.monitor_overhead_cycles == pytest.approx(
        ref.monitor_overhead_cycles, rel=1e-9
    )
    assert res.region_wall_cycles.keys() == ref.region_wall_cycles.keys()
    for name, cycles in ref.region_wall_cycles.items():
        assert res.region_wall_cycles[name] == pytest.approx(
            cycles, rel=1e-9
        ), name
    assert engine.applied_actions == ref_engine.applied_actions
    assert ref.dram_accesses > 0  # the comparison is non-trivial

    merged, ref_merged = merge_profiles(archive), merge_profiles(ref_archive)
    assert dict(merged.counters) == dict(ref_merged.counters)
    assert _cct_flat(merged.cct) == _cct_flat(ref_merged.cct)
    assert _cct_flat(merged.data_cct) == _cct_flat(ref_merged.data_cct)


@pytest.mark.parametrize("memo_bytes", BUDGETS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_pipeline_matches_per_chunk_reference(workload, memo_bytes):
    res, archive, engine = _run(workload, memo_bytes=memo_bytes)
    _assert_matches_reference(workload, res, archive, engine)
    stats = engine.memo.stats()
    if memo_bytes == 0:
        # Transient records only: nothing stored, nothing counted.
        assert (stats["hits"], stats["misses"], stats["records"]) == (0, 0, 0)
    else:
        assert stats["hits"] > 0


def test_memoize_false_is_a_zero_budget():
    res, _, engine = _run("amg", memoize=False)
    assert engine.memo.budget == 0
    zero, _, _ = _run("amg", memo_bytes=0)
    assert res.wall_cycles == zero.wall_cycles
    assert np.array_equal(res.thread_busy_cycles, zero.thread_busy_cycles)
