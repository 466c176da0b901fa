"""Machine facade: wiring, allocation passthrough, access pipeline."""

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.machine.topology import NumaTopology
from tests.reference.access import (
    classify_accesses,
    dram_request_counts,
    machine_access_latency,
)


@pytest.fixture
def machine():
    return presets.generic(n_domains=4, cores_per_domain=2)


class TestConstruction:
    def test_counts(self, machine):
        assert machine.n_cpus == 8
        assert machine.n_domains == 4

    def test_invalid_clock(self):
        topo = NumaTopology(n_domains=1, cores_per_domain=1)
        with pytest.raises(ValueError):
            Machine(topology=topo, ghz=0)

    def test_invalid_cpi(self):
        topo = NumaTopology(n_domains=1, cores_per_domain=1)
        with pytest.raises(ValueError):
            Machine(topology=topo, base_cpi=-1)

    def test_describe(self, machine):
        assert "NUMA domains" in machine.describe()


class TestAllocation:
    def test_map_unmap_roundtrip(self, machine):
        seg = machine.map_segment(0x1000, 8192, label="v")
        assert machine.page_table.segment_of_addr(0x1000) is seg
        machine.unmap_segment(seg)
        assert len(machine.page_table.segments) == 0


class TestAccessPipeline:
    def test_classify_returns_domains(self, machine):
        seg = machine.map_segment(
            0, 4 * 4096, PlacementPolicy.BIND, domains=[2]
        )
        addrs = np.arange(0, 4096, 8, dtype=np.int64)
        cls, targets = classify_accesses(machine, addrs, cpu=0, seg=seg)
        assert np.all(targets == 2)
        assert cls.levels.shape == addrs.shape

    def test_dram_request_counts(self, machine):
        seg = machine.map_segment(
            0, 4 * 4096, PlacementPolicy.BIND, domains=[1]
        )
        addrs = np.arange(0, 4 * 4096, 8, dtype=np.int64)
        cls, targets = classify_accesses(machine, addrs, cpu=0, seg=seg)
        req = dram_request_counts(machine, cls.levels, targets)
        assert req[1] == np.count_nonzero(cls.levels == LEVEL_DRAM)
        assert req.sum() == req[1]

    def test_access_latency_remote_exceeds_local(self, machine):
        seg_local = machine.map_segment(
            0, 4096, PlacementPolicy.BIND, domains=[0]
        )
        seg_remote = machine.map_segment(
            1 << 20, 4096, PlacementPolicy.BIND, domains=[3]
        )
        infl = np.ones(4)
        a_local = np.arange(0, 4096, 8, dtype=np.int64)
        a_remote = (1 << 20) + np.arange(0, 4096, 8, dtype=np.int64)
        cls_l, t_l = classify_accesses(machine, a_local, 0, seg_local)
        cls_r, t_r = classify_accesses(machine, a_remote, 0, seg_remote)
        lat_l = machine_access_latency(machine, cls_l.levels, t_l, 0, infl)
        lat_r = machine_access_latency(machine, cls_r.levels, t_r, 0, infl)
        assert lat_r.sum() > lat_l.sum()
