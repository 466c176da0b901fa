"""Heap/static/stack allocators with allocation call paths."""

import pytest

from repro.errors import AllocationError
from repro.machine import presets
from repro.machine.pagetable import PlacementPolicy
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import (
    HEAP_BASE,
    STACK_ARENA,
    STACK_BASE,
    STATIC_BASE,
    HeapAllocator,
    VariableKind,
)


@pytest.fixture
def heap():
    return HeapAllocator(presets.generic(n_domains=4, cores_per_domain=2))


PATH = (SourceLoc("main"), SourceLoc("alloc_site"), SourceLoc("malloc"))


class TestMalloc:
    def test_basic_allocation(self, heap):
        v = heap.malloc(1000, "a", PATH)
        assert v.kind is VariableKind.HEAP
        assert v.nbytes == 1000
        assert v.base >= HEAP_BASE
        assert v.alloc_path == PATH

    def test_variables_page_disjoint(self, heap):
        a = heap.malloc(100, "a", PATH)
        b = heap.malloc(100, "b", PATH)
        assert b.base // 4096 > (a.end - 1) // 4096

    def test_duplicate_name_rejected(self, heap):
        heap.malloc(100, "a", PATH)
        with pytest.raises(AllocationError):
            heap.malloc(100, "a", PATH)

    def test_nonpositive_size_rejected(self, heap):
        with pytest.raises(AllocationError):
            heap.malloc(0, "a", PATH)

    def test_placement_policy_honoured(self, heap):
        v = heap.malloc(
            8 * 4096, "a", PATH,
            policy=PlacementPolicy.INTERLEAVE, domains=[0, 1],
        )
        assert v.segment.policy is PlacementPolicy.INTERLEAVE
        assert set(v.segment.domains.tolist()) == {0, 1}

    def test_element_helpers(self, heap):
        v = heap.malloc(80, "a", PATH)
        assert v.n_elems() == 10


class TestStaticAlloc:
    def test_static_region(self, heap):
        v = heap.static_alloc(4096, "g")
        assert v.kind is VariableKind.STATIC
        assert STATIC_BASE <= v.base < HEAP_BASE
        assert v.alloc_path[0].func == "<static data>"


class TestStackAlloc:
    def test_per_thread_arenas(self, heap):
        a = heap.stack_alloc(4096, "s0", tid=0)
        b = heap.stack_alloc(4096, "s3", tid=3)
        assert a.kind is VariableKind.STACK
        assert a.base >= STACK_BASE
        assert b.base - STACK_BASE >= 3 * STACK_ARENA
        assert a.owner_tid == 0 and b.owner_tid == 3

    def test_arena_exhaustion(self, heap):
        with pytest.raises(AllocationError):
            heap.stack_alloc(STACK_ARENA + 4096, "huge", tid=0)

    def test_stack_placement_policy(self, heap):
        v = heap.stack_alloc(
            8 * 4096, "s", tid=0,
            policy=PlacementPolicy.BLOCKWISE, domains=[0, 1, 2, 3],
        )
        assert v.segment.policy is PlacementPolicy.BLOCKWISE


class TestFree:
    def test_free_unmaps(self, heap):
        v = heap.malloc(100, "a", PATH)
        heap.free(v)
        assert "a" not in heap.variables
        # Name can be reused after free.
        heap.malloc(100, "a", PATH)

    def test_double_free_rejected(self, heap):
        v = heap.malloc(100, "a", PATH)
        heap.free(v)
        with pytest.raises(AllocationError):
            heap.free(v)


class TestMonitorHooks:
    def test_alloc_and_free_callbacks(self, heap):
        events = []

        class Spy:
            def on_alloc(self, var):
                events.append(("alloc", var.name))

            def on_free(self, var):
                events.append(("free", var.name))

        heap.add_monitor(Spy())
        v = heap.malloc(100, "a", PATH)
        heap.free(v)
        assert events == [("alloc", "a"), ("free", "a")]

    def test_monitor_without_hooks_tolerated(self, heap):
        heap.add_monitor(object())
        heap.malloc(100, "a", PATH)  # must not raise
