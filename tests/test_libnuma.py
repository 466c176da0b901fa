"""The libnuma-shaped facade."""

import numpy as np
import pytest

from repro.errors import AllocationError, InvalidAddressError
from repro.machine import presets
from repro.machine.libnuma import LibNuma
from repro.machine.pagetable import UNBOUND


@pytest.fixture
def numa():
    return LibNuma(presets.generic(n_domains=4, cores_per_domain=2))


class TestQueries:
    def test_num_nodes(self, numa):
        assert numa.numa_num_configured_nodes() == 4

    def test_node_of_cpu(self, numa):
        assert numa.numa_node_of_cpu(0) == 0
        assert numa.numa_node_of_cpu(7) == 3

    def test_distance(self, numa):
        assert numa.numa_distance(1, 1) == 10
        assert numa.numa_distance(0, 2) > 10

    def test_move_pages_query(self, numa):
        seg = numa.numa_alloc_onnode(4 * 4096, node=2)
        addrs = seg.base + np.arange(0, 4 * 4096, 4096)
        np.testing.assert_array_equal(numa.move_pages(addrs), 2)

    def test_move_pages_unbound(self, numa):
        seg = numa.machine.map_segment(1 << 20, 4096)
        assert numa.move_pages(np.array([1 << 20]))[0] == UNBOUND


class TestMigration:
    def test_move_pages_migrates(self, numa):
        seg = numa.numa_alloc_onnode(2 * 4096, node=0)
        addrs = np.array([seg.base, seg.base + 4096])
        new = numa.move_pages(addrs, nodes=[3, 1])
        np.testing.assert_array_equal(new, [3, 1])

    def test_migration_balances_frames(self, numa):
        seg = numa.numa_alloc_onnode(4096, node=0)
        before = numa.machine.frames.total_available()
        numa.move_pages(np.array([seg.base]), nodes=[2])
        assert numa.machine.frames.total_available() == before
        assert numa.machine.frames.used[0] == 0

    def test_length_mismatch(self, numa):
        seg = numa.numa_alloc_onnode(4096, node=0)
        with pytest.raises(ValueError):
            numa.move_pages(np.array([seg.base]), nodes=[1, 2])


class TestMovePagesRejects:
    """A rejected ``move_pages`` leaves frames, owners, the unbound
    count and the epoch exactly as they were."""

    def _two_domains(self):
        # Two domains of four frames: page 0 of a 2-page segment bound
        # to domain 0, page 1 still unbound (first touch), and three
        # frames of domain 1 taken.
        numa = LibNuma(presets.generic(n_domains=2, cores_per_domain=1,
                                       frames_per_domain=4))
        numa.numa_alloc_onnode(3 * 4096, node=1)
        seg = numa.machine.map_segment(1 << 30, 2 * 4096)
        numa.move_pages(np.array([seg.base]), nodes=[0])
        return numa, seg

    def _state(self, numa, seg):
        pt = numa.machine.page_table
        return (
            pt.frames.used.tolist(), seg.domains.tolist(), seg.n_unbound,
            pt.epoch,
        )

    @pytest.mark.parametrize("node", [-1, 2, 7])
    def test_node_out_of_range(self, node):
        numa, seg = self._two_domains()
        before = self._state(numa, seg)
        assert before[:3] == ([1, 3], [0, UNBOUND], 1)
        with pytest.raises(AllocationError, match="out of range"):
            numa.move_pages(np.array([seg.base]), nodes=[node])
        assert self._state(numa, seg) == before

    def test_bad_node_after_good_ones_changes_nothing(self):
        numa, seg = self._two_domains()
        before = self._state(numa, seg)
        with pytest.raises(AllocationError):
            numa.move_pages(
                np.array([seg.base, seg.base + 4096]), nodes=[1, -1]
            )
        assert self._state(numa, seg) == before

    def test_short_destination_changes_nothing(self):
        # Domain 1 has one free frame; both pages cannot move there.
        numa, seg = self._two_domains()
        before = self._state(numa, seg)
        with pytest.raises(AllocationError, match="domain 1 is 1 frames short"):
            numa.move_pages(
                np.array([seg.base, seg.base + 4096]), nodes=[1, 1]
            )
        assert self._state(numa, seg) == before

    def test_frames_freed_by_the_call_count(self):
        # Domain 0 is full, but the call moves its page away first.
        numa, seg = self._two_domains()
        numa.numa_alloc_onnode(3 * 4096, node=0)
        numa.move_pages(
            np.array([seg.base, seg.base + 4096]), nodes=[1, 0]
        )
        assert self._state(numa, seg)[:3] == ([4, 4], [1, 0], 0)

    def test_unmapped_address_changes_nothing(self):
        numa, seg = self._two_domains()
        before = self._state(numa, seg)
        with pytest.raises(InvalidAddressError):
            numa.move_pages(np.array([seg.base, 1 << 40]), nodes=[1, 1])
        assert self._state(numa, seg) == before

    def test_binding_an_unbound_page_counts_it(self):
        numa, seg = self._two_domains()
        epoch = numa.machine.page_table.epoch
        numa.move_pages(np.array([seg.base + 4096]), nodes=[1])
        assert self._state(numa, seg) == ([1, 4], [0, 1], 0, epoch + 1)


class TestAllocation:
    def test_alloc_local(self, numa):
        seg = numa.numa_alloc_local(8 * 4096, cpu=5)  # cpu 5 -> domain 2
        assert set(seg.domains.tolist()) == {2}

    def test_alloc_interleaved(self, numa):
        seg = numa.numa_alloc_interleaved(8 * 4096)
        assert set(seg.domains.tolist()) == {0, 1, 2, 3}

    def test_alloc_interleaved_subset(self, numa):
        seg = numa.numa_alloc_interleaved(8 * 4096, nodes=[1, 3])
        assert set(seg.domains.tolist()) == {1, 3}

    def test_allocations_disjoint(self, numa):
        a = numa.numa_alloc_onnode(3 * 4096, node=0)
        b = numa.numa_alloc_onnode(3 * 4096, node=1)
        assert a.end <= b.base or b.end <= a.base

    def test_numa_free(self, numa):
        seg = numa.numa_alloc_onnode(4096, node=1)
        numa.numa_free(seg)
        assert numa.machine.frames.used[1] == 0
