"""Page table: mapping, placement policies, first touch, protection.

Includes hypothesis property tests on the placement invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, InvalidAddressError, ProtectionError
from repro.machine.frames import FrameManager
from repro.machine.pagetable import UNBOUND, PageTable, PlacementPolicy
from repro.machine.topology import (
    CPU_DTYPE, DOMAIN_DTYPE, MAX_CPUS, MAX_DOMAINS, NumaTopology,
)

PAGE = 4096


def make_table(n_domains=4, frames=10_000):
    topo = NumaTopology(n_domains=n_domains, cores_per_domain=2)
    return PageTable(topo, FrameManager(topo, frames))


class TestMapping:
    def test_map_and_lookup(self):
        pt = make_table()
        seg = pt.map_segment(0x10000, 5 * PAGE, label="v")
        assert seg.n_pages == 5
        assert pt.segment_of_addr(0x10000) is seg
        assert pt.segment_of_addr(0x10000 + 5 * PAGE - 1) is seg

    def test_unaligned_extent_rounds_to_pages(self):
        pt = make_table()
        seg = pt.map_segment(100, 50)
        assert seg.start_page == 0
        assert seg.n_pages == 1

    def test_unmapped_address_raises(self):
        pt = make_table()
        pt.map_segment(0x10000, PAGE)
        with pytest.raises(InvalidAddressError):
            pt.segment_of_addr(0x50000)

    def test_overlap_rejected(self):
        pt = make_table()
        pt.map_segment(0x10000, 4 * PAGE)
        with pytest.raises(AllocationError):
            pt.map_segment(0x10000 + 2 * PAGE, 4 * PAGE)

    def test_adjacent_segments_allowed(self):
        pt = make_table()
        pt.map_segment(0, 2 * PAGE)
        pt.map_segment(2 * PAGE, 2 * PAGE)
        assert len(pt.segments) == 2

    def test_unmap_releases_frames(self):
        pt = make_table()
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.BIND, domains=[1])
        used_before = int(pt.frames.used[1])
        pt.unmap_segment(seg)
        assert int(pt.frames.used[1]) == used_before - 8

    def test_double_unmap_raises(self):
        pt = make_table()
        seg = pt.map_segment(0, PAGE)
        pt.unmap_segment(seg)
        with pytest.raises(AllocationError):
            pt.unmap_segment(seg)

    def test_nonpositive_size_rejected(self):
        pt = make_table()
        with pytest.raises(AllocationError):
            pt.map_segment(0, 0)


class TestPolicies:
    def test_first_touch_starts_unbound(self):
        pt = make_table()
        seg = pt.map_segment(0, 4 * PAGE)
        assert np.all(seg.domains == UNBOUND)

    def test_bind_policy(self):
        pt = make_table()
        seg = pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[2])
        assert np.all(seg.domains == 2)

    def test_bind_requires_single_domain(self):
        pt = make_table()
        with pytest.raises(AllocationError):
            pt.map_segment(0, PAGE, PlacementPolicy.BIND, domains=[0, 1])

    def test_interleave_round_robin(self):
        pt = make_table()
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.INTERLEAVE)
        np.testing.assert_array_equal(seg.domains, [0, 1, 2, 3, 0, 1, 2, 3])

    def test_interleave_domain_subset(self):
        pt = make_table()
        seg = pt.map_segment(
            0, 4 * PAGE, PlacementPolicy.INTERLEAVE, domains=[1, 3]
        )
        np.testing.assert_array_equal(seg.domains, [1, 3, 1, 3])

    def test_blockwise_contiguous_blocks(self):
        pt = make_table()
        seg = pt.map_segment(
            0, 8 * PAGE, PlacementPolicy.BLOCKWISE, domains=[0, 1, 2, 3]
        )
        np.testing.assert_array_equal(seg.domains, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_blockwise_uneven_pages(self):
        pt = make_table()
        seg = pt.map_segment(
            0, 5 * PAGE, PlacementPolicy.BLOCKWISE, domains=[0, 1]
        )
        # Monotone non-decreasing domain assignment covering both domains.
        assert sorted(set(seg.domains.tolist())) == [0, 1]
        assert np.all(np.diff(seg.domains) >= 0)

    def test_invalid_domain_rejected(self):
        pt = make_table()
        with pytest.raises(AllocationError):
            pt.map_segment(0, PAGE, PlacementPolicy.BIND, domains=[9])

    def test_blockwise_requires_domains(self):
        pt = make_table()
        with pytest.raises(AllocationError):
            pt.map_segment(0, PAGE, PlacementPolicy.BLOCKWISE)


class TestFirstTouch:
    def test_touch_binds_to_toucher_domain(self):
        pt = make_table()
        pt.map_segment(0, 4 * PAGE)
        # CPU 2 lives in domain 1 (2 cores per domain).
        newly = pt.touch_pages(np.array([0, 1]), cpu=2)
        assert sorted(newly.tolist()) == [0, 1]
        np.testing.assert_array_equal(
            pt.domains_of_addrs(np.array([0, PAGE])), [1, 1]
        )

    def test_second_touch_does_not_rebind(self):
        pt = make_table()
        pt.map_segment(0, 2 * PAGE)
        pt.touch_pages(np.array([0]), cpu=0)
        newly = pt.touch_pages(np.array([0]), cpu=6)  # domain 3
        assert newly.size == 0
        assert pt.domains_of_addrs(np.array([0]))[0] == 0

    def test_touch_records_first_toucher_cpu(self):
        pt = make_table()
        seg = pt.map_segment(0, 2 * PAGE)
        pt.touch_pages(np.array([1]), cpu=5)
        assert seg.first_toucher_cpu[1] == 5
        assert seg.first_toucher_cpu[0] == -1

    def test_touch_spills_when_domain_full(self):
        topo = NumaTopology(n_domains=2, cores_per_domain=1)
        pt = PageTable(topo, FrameManager(topo, frames_per_domain=1))
        pt.map_segment(0, 2 * PAGE)
        pt.touch_pages(np.array([0]), cpu=0)
        pt.touch_pages(np.array([1]), cpu=0)  # domain 0 full -> spills to 1
        doms = pt.domains_of_addrs(np.array([0, PAGE]))
        assert doms[0] == 0 and doms[1] == 1

    def test_eagerly_bound_policies_ignore_touch(self):
        pt = make_table()
        pt.map_segment(0, 4 * PAGE, PlacementPolicy.INTERLEAVE)
        newly = pt.touch_pages(np.array([0, 1, 2, 3]), cpu=0)
        assert newly.size == 0


class TestDomainsOfAddrs:
    def test_unbound_reported(self):
        pt = make_table()
        pt.map_segment(0, 2 * PAGE)
        np.testing.assert_array_equal(
            pt.domains_of_addrs(np.array([0, PAGE + 5])), [UNBOUND, UNBOUND]
        )

    def test_cross_segment_query(self):
        pt = make_table()
        pt.map_segment(0, PAGE, PlacementPolicy.BIND, domains=[0])
        pt.map_segment(0x100000, PAGE, PlacementPolicy.BIND, domains=[3])
        doms = pt.domains_of_addrs(np.array([10, 0x100000 + 10]))
        np.testing.assert_array_equal(doms, [0, 3])

    def test_unmapped_page_raises(self):
        pt = make_table()
        pt.map_segment(0, PAGE)
        with pytest.raises(InvalidAddressError):
            pt.domains_of_addrs(np.array([0x900000]))


class TestProtection:
    def test_protect_interior_pages_only(self):
        pt = make_table()
        pt.map_segment(0x1000, 3 * PAGE + 100)  # pages 1..4 (4 partially)
        n = pt.protect_range(0x1000 + 10, 3 * PAGE)
        # Only pages fully inside [0x1010, 0x1010 + 3*PAGE) protected.
        assert n == 2
        mask = pt.protected_mask(np.array([1, 2, 3, 4]))
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_protect_aligned_range(self):
        pt = make_table()
        pt.map_segment(0x2000, 4 * PAGE)
        assert pt.protect_range(0x2000, 4 * PAGE) == 4

    def test_protect_subpage_range_protects_nothing(self):
        pt = make_table()
        pt.map_segment(0x2000, 4 * PAGE)
        assert pt.protect_range(0x2000 + 100, 200) == 0

    def test_protect_beyond_segment_raises(self):
        pt = make_table()
        pt.map_segment(0x2000, PAGE)
        with pytest.raises(ProtectionError):
            pt.protect_range(0x2000, 2 * PAGE)

    def test_unprotect(self):
        pt = make_table()
        pt.map_segment(0x2000, 2 * PAGE)
        pt.protect_range(0x2000, 2 * PAGE)
        pt.unprotect_pages(np.array([2]))
        mask = pt.protected_mask(np.array([2, 3]))
        np.testing.assert_array_equal(mask, [False, True])


class TestMigration:
    def test_migrate_to_interleave(self):
        pt = make_table()
        seg = pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[0])
        pt.migrate_segment(seg, PlacementPolicy.INTERLEAVE)
        np.testing.assert_array_equal(seg.domains, [0, 1, 2, 3])

    def test_migrate_frame_accounting_balances(self):
        pt = make_table()
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.BIND, domains=[0])
        total_before = pt.frames.total_available()
        pt.migrate_segment(seg, PlacementPolicy.BLOCKWISE, domains=[0, 1])
        assert pt.frames.total_available() == total_before

    def test_migrate_to_first_touch_resets(self):
        pt = make_table()
        seg = pt.map_segment(0, 2 * PAGE, PlacementPolicy.BIND, domains=[1])
        pt.migrate_segment(seg, PlacementPolicy.FIRST_TOUCH)
        assert np.all(seg.domains == UNBOUND)

    def test_migrate_counts_freed_frames_toward_capacity(self):
        # Migrating BIND[0] -> BIND[0] on a full domain must succeed: the
        # frames about to be freed cover the frames about to be reserved.
        pt = make_table(frames=8)
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.BIND, domains=[0])
        assert pt.frames.available(0) == 0
        pt.migrate_segment(seg, PlacementPolicy.BIND, domains=[0])
        np.testing.assert_array_equal(seg.domains, [0] * 8)


class TestMigrateAtomic:
    """A failed migration must leave every piece of state untouched."""

    def _snapshot(self, pt, seg):
        return (
            seg.domains.copy(),
            seg.first_toucher_cpu.copy(),
            seg.policy,
            seg.n_unbound,
            pt.frames.used.copy(),
            pt.epoch,
        )

    def _assert_unchanged(self, pt, seg, snap):
        domains, toucher, policy, n_unbound, used, epoch = snap
        np.testing.assert_array_equal(seg.domains, domains)
        np.testing.assert_array_equal(seg.first_toucher_cpu, toucher)
        assert seg.policy is policy
        assert seg.n_unbound == n_unbound
        np.testing.assert_array_equal(pt.frames.used, used)
        assert pt.epoch == epoch

    def test_exhausted_domain_aborts_bind_cleanly(self):
        pt = make_table(frames=8)
        seg = pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[0])
        # Fill domain 1 completely with an unrelated segment.
        pt.map_segment(0x100000, 8 * PAGE, PlacementPolicy.BIND, domains=[1])
        snap = self._snapshot(pt, seg)
        with pytest.raises(AllocationError):
            pt.migrate_segment(seg, PlacementPolicy.BIND, domains=[1])
        self._assert_unchanged(pt, seg, snap)

    def test_exhausted_domain_aborts_interleave_midloop(self):
        # INTERLEAVE over domains where a later one is exhausted: the old
        # code reserved domain-by-domain and leaked earlier reservations.
        pt = make_table(frames=8)
        pt.map_segment(0x100000, 8 * PAGE, PlacementPolicy.BIND, domains=[3])
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.BIND, domains=[0])
        snap = self._snapshot(pt, seg)
        with pytest.raises(AllocationError):
            pt.migrate_segment(
                seg, PlacementPolicy.INTERLEAVE, domains=[1, 2, 3]
            )
        self._assert_unchanged(pt, seg, snap)

    def test_exhausted_domain_aborts_blockwise_midloop(self):
        pt = make_table(frames=8)
        pt.map_segment(0x100000, 8 * PAGE, PlacementPolicy.BIND, domains=[2])
        seg = pt.map_segment(0, 8 * PAGE, PlacementPolicy.BIND, domains=[0])
        snap = self._snapshot(pt, seg)
        with pytest.raises(AllocationError):
            pt.migrate_segment(seg, PlacementPolicy.BLOCKWISE, domains=[1, 2])
        self._assert_unchanged(pt, seg, snap)

    def test_bad_domain_argument_aborts_cleanly(self):
        pt = make_table()
        seg = pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[0])
        snap = self._snapshot(pt, seg)
        with pytest.raises(AllocationError):
            pt.migrate_segment(seg, PlacementPolicy.BIND, domains=[99])
        with pytest.raises(AllocationError):
            pt.migrate_segment(seg, PlacementPolicy.BLOCKWISE, domains=None)
        self._assert_unchanged(pt, seg, snap)


class TestMapAtomic:
    """A failed map must reserve no frames and map nothing."""

    def _two_small_domains(self):
        # Two domains of four frames; domain 1 already holds three.
        topo = NumaTopology(n_domains=2, cores_per_domain=1)
        pt = PageTable(topo, FrameManager(topo, 4))
        pt.map_segment(0x100000, 3 * PAGE, PlacementPolicy.BIND, domains=[1])
        return pt

    @pytest.mark.parametrize(
        "policy", [PlacementPolicy.INTERLEAVE, PlacementPolicy.BLOCKWISE]
    )
    def test_short_later_domain_leaks_no_frames(self, policy):
        pt = self._two_small_domains()
        used, epoch = pt.frames.used.copy(), pt.epoch
        segments = [s.seg_id for s in pt.segments]
        with pytest.raises(AllocationError, match="domain 1 is 1 frames short"):
            pt.map_segment(0, 4 * PAGE, policy, domains=[0, 1])
        np.testing.assert_array_equal(pt.frames.used, used)
        assert [s.seg_id for s in pt.segments] == segments
        assert pt.epoch == epoch
        # The space the failed map asked for is still free to map.
        seg = pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[0])
        np.testing.assert_array_equal(pt.frames.used, [4, 3])
        assert seg.seg_id == segments[-1] + 1

    def test_short_bind_leaves_table_unchanged(self):
        pt = self._two_small_domains()
        used, epoch = pt.frames.used.copy(), pt.epoch
        with pytest.raises(AllocationError):
            pt.map_segment(0, 2 * PAGE, PlacementPolicy.BIND, domains=[1])
        np.testing.assert_array_equal(pt.frames.used, used)
        assert len(pt.segments) == 1 and pt.epoch == epoch


class TestPerPageWidths:
    """Owners and first touchers keep their narrow dtypes everywhere."""

    def _assert_widths(self, seg):
        assert seg.domains.dtype == DOMAIN_DTYPE
        assert seg.first_toucher_cpu.dtype == CPU_DTYPE

    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_map_touch_migrate_unmap(self, policy):
        pt = make_table()
        domains = {
            PlacementPolicy.BIND: [2], PlacementPolicy.BLOCKWISE: [0, 3],
        }.get(policy)
        seg = pt.map_segment(0, 8 * PAGE, policy, domains=domains)
        self._assert_widths(seg)
        pt.touch_pages(np.arange(8), cpu=7)
        self._assert_widths(seg)
        assert pt.domains_of_addrs(np.arange(8) * PAGE).dtype == DOMAIN_DTYPE
        for target, doms in (
            (PlacementPolicy.INTERLEAVE, None),
            (PlacementPolicy.FIRST_TOUCH, None),
            (PlacementPolicy.BLOCKWISE, [3, 1]),
        ):
            pt.migrate_segment(seg, target, doms)
            self._assert_widths(seg)
        pt.unmap_segment(seg)
        self._assert_widths(seg)
        np.testing.assert_array_equal(pt.frames.used, 0)

    def test_widest_ids_fit(self):
        # The largest topology the limits allow: ids 126 and 32766.
        topo = NumaTopology(n_domains=MAX_DOMAINS, cores_per_domain=258)
        assert topo.n_cpus <= MAX_CPUS
        pt = PageTable(topo, FrameManager(topo, 4))
        last = topo.n_cpus - 1
        seg = pt.map_segment(0, 2 * PAGE)
        pt.touch_pages(np.array([1]), cpu=last)
        assert seg.domains.tolist() == [UNBOUND, MAX_DOMAINS - 1]
        assert seg.first_toucher_cpu.tolist() == [-1, last]
        pt.migrate_segment(seg, PlacementPolicy.BIND, [MAX_DOMAINS - 1])
        assert seg.domains.tolist() == [MAX_DOMAINS - 1] * 2

    @pytest.mark.parametrize("program", [
        {},
        {"skew": 8, "policy": PlacementPolicy.BIND, "domains": [1]},
    ])
    def test_variant_dram_targets_share_the_owner_dtype(
        self, monkeypatch, program
    ):
        from repro.runtime import ExecutionEngine
        from tests.test_build_sharing import _engine

        built = []
        original = ExecutionEngine._build_variant

        def keep(self, *args):
            built.append(original(self, *args))
            return built[-1]

        monkeypatch.setattr(ExecutionEngine, "_build_variant", keep)
        _engine(program=program).run()
        targets = [t for var in built for t in var.dram_targets]
        assert targets and all(t is not None for t in targets)
        assert {t.dtype for t in targets} == {DOMAIN_DTYPE}
        assert {tgt.dtype for var in built for tgt, *_ in var.lat_groups} == {
            DOMAIN_DTYPE
        }


class TestStatistics:
    def test_domain_page_counts(self):
        pt = make_table()
        pt.map_segment(0, 4 * PAGE, PlacementPolicy.BIND, domains=[2])
        pt.map_segment(0x100000, 4 * PAGE, PlacementPolicy.INTERLEAVE)
        counts = pt.domain_page_counts()
        assert counts[2] == 5  # 4 bound + 1 interleaved
        assert counts.sum() == 8


# ---------------------------------------------------------------------- #
# property-based tests
# ---------------------------------------------------------------------- #


@given(
    n_pages=st.integers(min_value=1, max_value=64),
    n_domains=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_interleave_is_balanced(n_pages, n_domains):
    """Interleaved placement never puts two more pages on one domain than
    another."""
    topo = NumaTopology(n_domains=n_domains, cores_per_domain=1)
    pt = PageTable(topo, FrameManager(topo, 10_000))
    seg = pt.map_segment(0, n_pages * PAGE, PlacementPolicy.INTERLEAVE)
    counts = np.bincount(seg.domains, minlength=n_domains)
    assert counts.max() - counts.min() <= 1


@given(
    n_pages=st.integers(min_value=1, max_value=64),
    n_domains=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_blockwise_is_monotone_and_complete(n_pages, n_domains):
    """Block-wise placement yields monotone, frame-balanced assignment."""
    topo = NumaTopology(n_domains=n_domains, cores_per_domain=1)
    pt = PageTable(topo, FrameManager(topo, 10_000))
    seg = pt.map_segment(
        0, n_pages * PAGE, PlacementPolicy.BLOCKWISE,
        domains=list(range(n_domains)),
    )
    assert np.all(seg.domains != UNBOUND)
    assert np.all(np.diff(seg.domains) >= 0)
    # Frame accounting matches page counts exactly.
    counts = np.bincount(seg.domains, minlength=n_domains)
    np.testing.assert_array_equal(counts, pt.frames.used)


@given(
    touch_order=st.permutations(list(range(8))),
    cpus=st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_first_touch_binding_is_sticky(touch_order, cpus):
    """Each page binds exactly once, to its first toucher's domain."""
    topo = NumaTopology(n_domains=4, cores_per_domain=2)
    pt = PageTable(topo, FrameManager(topo, 10_000))
    seg = pt.map_segment(0, 8 * PAGE)
    first = {}
    for page, cpu in zip(touch_order, cpus):
        pt.touch_pages(np.array([page]), cpu)
        first.setdefault(page, topo.domain_of_cpu(cpu))
        # re-touch from another cpu must not change anything
        pt.touch_pages(np.array([page]), (cpu + 2) % 8)
    for page, dom in first.items():
        assert seg.domains[page] == dom
