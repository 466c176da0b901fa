"""Simulated heap, static, and stack allocators with allocation call paths.

The profiler's data-centric attribution (paper Section 5.1) needs two
sources of variable extents:

* static variables, from the executable's symbol table — modeled by
  :meth:`HeapAllocator.static_alloc` placing segments in a static region;
* heap variables, from wrapped ``malloc``/``new`` calls together with the
  *full calling context of the allocation site* — modeled by
  :meth:`HeapAllocator.malloc` carrying an explicit call path.

Stack variables (LULESH's ``nodelist``) get their own per-thread stack
region; the paper handled them by manual promotion to static, and lists
native stack support as future work — here both are available.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AllocationError
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy, Segment
from repro.runtime.callstack import CallPath, SourceLoc
from repro.units import align_up

#: Virtual layout: disjoint gigabyte-scale arenas per segment kind.
STATIC_BASE = 1 << 32
HEAP_BASE = 1 << 40
STACK_BASE = 1 << 44
# Per-thread stack arena. Purely virtual (the simulator never backs
# it), so it is sized for the largest supported workload scale —
# LULESH at --scale 100 puts a ~1.3 GB nodelist on thread 0's stack.
STACK_ARENA = 16 * 1024 * 1024 * 1024


class VariableKind(enum.Enum):
    """Where a variable lives; drives attribution grouping in the views."""

    HEAP = "heap"
    STATIC = "static"
    STACK = "stack"


@dataclass(eq=False, repr=False)
class Variable:
    """A named, mapped program variable.

    The profiler identifies heap variables by their allocation call path
    and static/stack variables by name — both are carried here.
    """

    name: str
    kind: VariableKind
    segment: Segment
    alloc_path: CallPath
    owner_tid: int = -1  # allocating thread (stack vars: owning thread)

    @property
    def base(self) -> int:
        """First mapped byte address."""
        return self.segment.base

    @property
    def nbytes(self) -> int:
        """Extent in bytes."""
        return self.segment.nbytes

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.segment.base + self.segment.nbytes

    def n_elems(self, elem_size: int = 8) -> int:
        """Element count at the given element size."""
        return self.nbytes // elem_size


class HeapAllocator:
    """Bump allocators over the heap/static/stack arenas of one machine.

    Registered monitors (the profiler) get an ``on_alloc`` callback for
    every allocation — the analogue of the tool's allocation wrappers.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._heap_cursor = HEAP_BASE
        self._static_cursor = STATIC_BASE
        self._stack_cursors: dict[int, int] = {}
        self.variables: dict[str, Variable] = {}
        self._monitors: list = []

    def add_monitor(self, monitor) -> None:
        """Attach an object with ``on_alloc(var)`` / ``on_free(var)`` hooks."""
        self._monitors.append(monitor)

    # ------------------------------------------------------------------ #

    def malloc(
        self,
        nbytes: int,
        name: str,
        path: CallPath = (),
        *,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        domains: list[int] | None = None,
        tid: int = 0,
    ) -> Variable:
        """Allocate a heap variable.

        ``path`` is the calling context of the allocation site; it should
        end at the allocator frame (e.g. ``operator new[]``) to mirror the
        CCTs in the paper's Figure 3.
        """
        base = self._bump_heap(nbytes)
        return self._register(
            name, VariableKind.HEAP, base, nbytes, path, policy, domains, tid
        )

    def static_alloc(
        self,
        nbytes: int,
        name: str,
        *,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        domains: list[int] | None = None,
    ) -> Variable:
        """Allocate a static (load-time) variable."""
        nbytes_aligned = align_up(max(nbytes, 1), self.machine.page_size)
        base = self._static_cursor
        self._static_cursor += nbytes_aligned + self.machine.page_size
        path = (SourceLoc("<static data>"),)
        return self._register(
            name, VariableKind.STATIC, base, nbytes, path, policy, domains, -1
        )

    def stack_alloc(
        self,
        nbytes: int,
        name: str,
        tid: int,
        path: CallPath = (),
        *,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        domains: list[int] | None = None,
    ) -> Variable:
        """Allocate a stack variable on thread ``tid``'s stack arena.

        Stack pages default to first-touch binding (a thread's stack is
        touched by that thread as frames grow — except large arrays
        handed to worker threads, the very pattern LULESH's ``nodelist``
        exposes). An explicit ``policy`` models the paper's fix of
        promoting such an array and distributing its pages.
        """
        cursor = self._stack_cursors.get(tid, STACK_BASE + tid * STACK_ARENA)
        if cursor + nbytes >= STACK_BASE + (tid + 1) * STACK_ARENA:
            raise AllocationError(
                f"thread {tid} stack arena exhausted allocating {name}"
            )
        nbytes_aligned = align_up(max(nbytes, 1), self.machine.page_size)
        self._stack_cursors[tid] = cursor + nbytes_aligned + self.machine.page_size
        return self._register(
            name, VariableKind.STACK, cursor, nbytes,
            path or (SourceLoc("main"),), policy, domains, tid
        )

    def free(self, var: Variable) -> None:
        """Free a variable and unmap its segment."""
        if var.name not in self.variables:
            raise AllocationError(f"variable {var.name!r} is not allocated")
        for mon in self._monitors:
            on_free = getattr(mon, "on_free", None)
            if on_free:
                on_free(var)
        self.machine.unmap_segment(var.segment)
        del self.variables[var.name]

    # ------------------------------------------------------------------ #

    def _bump_heap(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        base = self._heap_cursor
        # Page-align and leave a guard page so variables never share pages;
        # real allocators do share, but page-disjoint variables make
        # data-centric attribution exact, which is what we validate against.
        self._heap_cursor += align_up(nbytes, self.machine.page_size) + self.machine.page_size
        return base

    def _register(
        self,
        name: str,
        kind: VariableKind,
        base: int,
        nbytes: int,
        path: CallPath,
        policy: PlacementPolicy,
        domains: list[int] | None,
        tid: int,
    ) -> Variable:
        if name in self.variables:
            raise AllocationError(f"variable {name!r} already allocated")
        seg = self.machine.map_segment(
            base, nbytes, policy, domains=domains, label=name
        )
        var = Variable(
            name=name, kind=kind, segment=seg, alloc_path=tuple(path), owner_tid=tid
        )
        self.variables[name] = var
        for mon in self._monitors:
            on_alloc = getattr(mon, "on_alloc", None)
            if on_alloc:
                on_alloc(var)
        return var
