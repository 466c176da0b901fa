"""Program and region abstractions for simulated multithreaded codes.

A :class:`Program` allocates its variables in :meth:`Program.setup` and
then describes execution as an ordered list of :class:`Region` objects.
Parallel regions correspond to OpenMP parallel loops: every thread runs
the kernel, which yields that thread's access chunks. Serial regions run
on the master thread only — the pattern that produces the classic
"master thread first-touches everything" NUMA bug the paper's case
studies revolve around.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.errors import ProgramError
from repro.machine.machine import Machine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from repro.runtime.heap import HeapAllocator, Variable
from repro.runtime.thread import SimThread


class RegionKind(enum.Enum):
    """Execution shape of a region."""

    SERIAL = "serial"      # master thread only (thread 0)
    PARALLEL = "parallel"  # all program threads


#: A kernel maps (context, thread id) to that thread's chunk stream.
Kernel = Callable[["ProgramContext", int], Iterable[AccessChunk]]


@dataclass(eq=False, repr=False)
class Region:
    """One serial or parallel region of a program.

    ``repeat`` runs the region multiple times back to back (time steps,
    solver iterations); each repetition re-enters/exits the region frame
    so code-centric attribution aggregates across iterations.

    The engine draws a whole iteration's chunk stream before executing
    it (and may replay it on later iterations; see
    :mod:`repro.runtime.memo`), so a kernel's stream must be a
    deterministic function of ``(ctx, tid)`` that does not read mutable
    machine state (page placement, cache state) during generation.
    """

    name: str
    kind: RegionKind
    kernel: Kernel
    src: SourceLoc
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat <= 0:
            raise ProgramError(f"region {self.name!r} repeat must be positive")


class ProgramContext:
    """Everything a program needs at setup and kernel time.

    Provides the machine, the allocator, the thread binding, and
    deterministic per-thread RNG streams.
    """

    def __init__(
        self,
        machine: Machine,
        heap: HeapAllocator,
        threads: list[SimThread],
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.heap = heap
        self.threads = threads
        self.seed = seed

    @property
    def n_threads(self) -> int:
        """Number of program threads."""
        return len(self.threads)

    @property
    def n_domains(self) -> int:
        """NUMA domain count of the machine."""
        return self.machine.n_domains

    def var(self, name: str) -> Variable:
        """Look up an allocated variable by name."""
        try:
            return self.heap.variables[name]
        except KeyError:
            raise ProgramError(f"variable {name!r} has not been allocated") from None

    def rng(self, tid: int, salt: int = 0) -> np.random.Generator:
        """Deterministic per-thread random stream."""
        # Imported on first use: loading ``_hashing`` at module import
        # shifts the heap layout of runs that draw no stream, and raised
        # umt's RSS peak by 0.5 MB.
        from repro._hashing import numpy_random

        return numpy_random().default_rng((self.seed, tid, salt))

    def partition(self, n_items: int, tid: int) -> tuple[int, int]:
        """Contiguous block partition of ``n_items`` across threads.

        Returns the half-open element range ``[lo, hi)`` owned by ``tid``
        — the canonical OpenMP ``schedule(static)`` decomposition. The
        bounds are ``np.linspace(0, n_items, n_threads + 1)`` truncated
        to integers, computed for ``tid`` alone: linspace's ``k * step``
        with its last bound pinned to ``n_items``.
        """
        step = n_items / self.n_threads
        hi = (
            int(n_items) if tid + 1 == self.n_threads
            else int((tid + 1) * step)
        )
        return int(tid * step), hi


class Program(Protocol):
    """Structural protocol for simulated programs.

    Implementations provide ``name``, allocate their variables in
    ``setup``, and return their region list from ``regions``. See
    :mod:`repro.workloads` for the four paper benchmarks.
    """

    name: str

    def setup(self, ctx: ProgramContext) -> None:
        """Allocate variables (with allocation call paths)."""
        ...

    def regions(self, ctx: ProgramContext) -> list[Region]:
        """Ordered region list executed by the engine."""
        ...
