"""Access chunks: the vectorized unit of simulated execution.

A chunk represents the memory traffic and instruction count of one
array-reference site executed over many loop iterations — e.g. "this
thread's slice of the sweep over ``z`` in ``CalcPosition``". Keeping
thousands of accesses per chunk lets the whole simulator run as NumPy
array operations (see the hpc-parallel guides: vectorize the hot loop).

This module is the only one that knows how a chunk's addresses are
stored. A sweep is an :class:`AffineChunk` — addresses ``first + step*i``
for ``i < n``, kept as those three integers — and indirect or hand-built
chunks are :class:`AccessChunk` with an explicit int64 array. Consumers
ask the chunk what they need (``n_accesses``, ``first_addr``,
``addrs_at``, ``unique_pages``, ``fetch_products``, ``fetch_key``,
``fetch_page_runs``, ``nbytes``); an affine chunk answers each in
closed form, so the engine's step pipeline never expands a sweep's
addresses. ``.addrs`` materializes the whole array on every call and
is reserved for full materialization (see docs/MODEL.md, "Chunk
geometry").
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ProgramError
from repro.machine.cache import SEQUENTIAL_STRIDE_LIMIT, array_fetch_products
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import Variable
from repro.units import fast_unique


class AccessChunk:
    """Memory accesses plus surrounding instructions for one access site.

    Attributes
    ----------
    var:
        The variable the addresses fall in (``None`` for pure-compute
        chunks with no memory traffic).
    addrs:
        Absolute byte addresses, in program order (an explicit array;
        see :class:`AffineChunk` for the descriptor form).
    n_instructions:
        Total instructions this chunk represents, *including* the memory
        instructions. Must be >= ``n_accesses``.
    ip:
        Precise source coordinate of the access site (code-centric
        attribution target).
    is_store:
        Whether the accesses are writes (first touch by a store is what
        binds pages in real systems; the simulator binds on either, like
        Linux does on read faults too).
    """

    __slots__ = ("var", "n_instructions", "ip", "is_store", "_addrs")

    def __init__(
        self,
        var: Variable | None,
        addrs: np.ndarray,
        n_instructions: int,
        ip: SourceLoc,
        is_store: bool = False,
    ) -> None:
        self.var = var
        self.n_instructions = n_instructions
        self.ip = ip
        self.is_store = is_store
        self._addrs = np.ascontiguousarray(np.asarray(addrs, dtype=np.int64))
        self._check()

    def _check(self) -> None:
        """The instruction floor and the variable bounds, from the span."""
        n = self.n_accesses
        if self.n_instructions < n:
            raise ProgramError(
                f"chunk at {self.ip} has {n} accesses but only "
                f"{self.n_instructions} instructions"
            )
        if self.var is not None and n:
            lo, hi = self._span()
            if lo < self.var.base or hi >= self.var.end:
                raise ProgramError(
                    f"chunk at {self.ip} accesses [{lo:#x}, {hi:#x}] outside "
                    f"variable {self.var.name} [{self.var.base:#x}, {self.var.end:#x})"
                )

    def _span(self) -> tuple[int, int]:
        """Lowest and highest address (non-empty chunks only)."""
        return int(self._addrs.min()), int(self._addrs.max())

    @property
    def addrs(self) -> np.ndarray:
        """Every address, in program order."""
        return self._addrs

    @property
    def n_accesses(self) -> int:
        """Number of memory accesses in the chunk."""
        return int(self._addrs.size)

    @property
    def first_addr(self) -> int:
        """Address of the first access (non-empty chunks only)."""
        return int(self._addrs[0])

    @property
    def nbytes(self) -> int:
        """Bytes that hold the chunk's addresses (memo accounting)."""
        return int(self._addrs.nbytes)

    def addrs_at(self, idx: np.ndarray) -> np.ndarray:
        """Addresses at chunk-local integer positions ``idx``."""
        return self._addrs[idx]

    def unique_pages(self, page_size: int) -> np.ndarray:
        """The sorted unique pages the chunk touches."""
        return fast_unique(self._addrs // page_size)

    def fetch_products(
        self, line_size: int
    ) -> tuple[np.ndarray, np.ndarray, int, bool]:
        """Pure classification products: ``(fetch, fidx, footprint, seq)``.

        ``fetch`` marks each line's first access, ``fidx`` is its
        ascending positions, ``footprint`` is unique lines times
        ``line_size`` and ``seq`` the prefetchable-stream flag — exactly
        :func:`repro.machine.cache.array_fetch_products` on :attr:`addrs`.
        """
        fetch, footprint, seq = array_fetch_products(self._addrs, line_size)
        return fetch, np.flatnonzero(fetch), footprint, seq

    def fetch_key(self, line_size: int):
        """What :meth:`fetch_products` depends on, or None.

        Chunks with equal non-None keys have equal fetch products, so a
        step builds them once. An explicit chunk's products depend on
        every address: it answers None and never shares.
        """
        return None

    def affine_form(self) -> tuple[int, int] | None:
        """``(first, step)`` of a sweep; None for explicit addresses."""
        return None

    def fetch_page_runs(
        self, fidx: np.ndarray, page_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The fetches at ``fidx`` as page runs: ``(pages, counts)``.

        In fetch order, ``np.repeat(pages, counts)`` equals
        ``addrs_at(fidx) // page_size``. An explicit chunk answers one
        run per fetch.
        """
        pages = self.addrs_at(fidx) // page_size
        return pages, np.ones(pages.size, dtype=np.int64)


class AffineChunk(AccessChunk):
    """A sweep: ``n`` accesses at ``first + step*i``, stored as a descriptor.

    Every question :class:`AccessChunk` answers is answered here in
    closed form. Only :attr:`addrs` (counted as
    ``engine.lazy.materialized_addrs``) expands the sweep.
    """

    __slots__ = ("_first", "_step", "_n")

    def __init__(
        self,
        var: Variable,
        first: int,
        step: int,
        n: int,
        n_instructions: int,
        ip: SourceLoc,
        is_store: bool = False,
    ) -> None:
        self.var = var
        self.n_instructions = n_instructions
        self.ip = ip
        self.is_store = is_store
        self._first = int(first)
        self._step = int(step)
        self._n = int(n)
        self._check()

    def _span(self) -> tuple[int, int]:
        last = self._first + self._step * (self._n - 1)
        return min(self._first, last), max(self._first, last)

    @property
    def addrs(self) -> np.ndarray:
        """The expanded sweep (built on every call, never cached)."""
        obs.TRACER.count("engine.lazy.materialized_addrs")
        return self._first + self._step * np.arange(self._n, dtype=np.int64)

    @property
    def n_accesses(self) -> int:
        return self._n

    @property
    def first_addr(self) -> int:
        return self._first

    @property
    def nbytes(self) -> int:
        return 24  # the (first, step, n) descriptor

    def addrs_at(self, idx: np.ndarray) -> np.ndarray:
        out = np.multiply(idx, self._step, dtype=np.int64)
        out += self._first
        return out

    def unique_pages(self, page_size: int) -> np.ndarray:
        first, step, n = self._first, self._step, self._n
        if abs(step) < page_size:
            # Consecutive accesses never skip a page: the pages between
            # the endpoints, all of them.
            lo, hi = self._span()
            return np.arange(
                lo // page_size, hi // page_size + 1, dtype=np.int64
            )
        pages = (first + step * np.arange(n, dtype=np.int64)) // page_size
        return pages if step > 0 else pages[::-1].copy()

    def fetch_products(
        self, line_size: int
    ) -> tuple[np.ndarray, np.ndarray, int, bool]:
        first, step, n = self._first, self._step, self._n
        if abs(step) >= line_size:
            # Every access lands on a line no earlier access touched.
            fidx = np.arange(n, dtype=np.int64)
            fetch = np.ones(n, dtype=bool)
        else:
            # A stride under a line visits every line between the
            # endpoints once, in order. The ``j``-th line after the first
            # starts ``gap = g0 + j*line_size`` bytes along the sweep, and
            # its first access is ``ceil(gap / |step|)``.
            l0 = first // line_size
            l1 = (first + step * (n - 1)) // line_size
            if step > 0:
                g0 = (l0 + 1) * line_size - first
            else:
                g0 = first + 1 - l0 * line_size
            s = abs(step) or 1
            m = abs(l1 - l0)
            fidx = np.empty(m + 1, dtype=np.int64)
            fidx[0] = 0
            c = g0 + s - 1
            np.floor_divide(
                np.arange(c, c + m * line_size, line_size, dtype=np.int64),
                s, out=fidx[1:],
            )
            fetch = np.zeros(n, dtype=bool)
            fetch[fidx] = True
        seq = n < 2 or 0 <= step <= SEQUENTIAL_STRIDE_LIMIT
        return fetch, fidx, int(fidx.size) * line_size, seq

    def fetch_key(self, line_size: int):
        # The line grid only sees ``first`` through its offset in a line.
        return self._first % line_size, self._step, self._n

    def affine_form(self) -> tuple[int, int]:
        return self._first, self._step

    def fetch_page_runs(
        self, fidx: np.ndarray, page_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        first, step = self._first, self._step
        if step == 0 or abs(step) >= page_size or not fidx.size:
            return super().fetch_page_runs(fidx, page_size)
        # As in fetch_products, one page at a time: the ``j``-th page
        # after the first starts ``gap = g0 + j*page_size`` bytes along
        # the sweep, so its first access is ``ceil(gap / |step|)`` and
        # its run starts at the first fetch at or after that access.
        # ``j`` runs from -1 (gap <= 0: run 0 starts at fetch 0) to the
        # page past the last fetch (its run starts at ``fidx.size``).
        r = first % page_size
        g0 = page_size - r if step > 0 else r + 1
        s = abs(step)
        m = abs((first + step * int(fidx[-1])) // page_size - first // page_size)
        c = g0 + s - 1 - page_size
        edges = fidx.searchsorted(
            np.arange(c, c + (m + 1) * page_size + 1, page_size) // s
        )
        pages = first // page_size + np.sign(step) * np.arange(m + 1)
        return pages, edges[1:] - edges[:-1]


class StepTrace(list):
    """A region iteration's pre-drawn steps plus per-step counts.

    Each element is the usual ``[(thread, chunk), ...]`` lockstep step.
    ``n_chunks[s]`` and ``n_mem[s]`` count step ``s``'s chunks and
    memory chunks (a variable and at least one access) — the totals the
    run driver sums over shards for its step counters.
    :meth:`columns` hands out each step's per-chunk thread ids and
    instruction and access counts as arrays.
    """

    __slots__ = ("n_chunks", "n_mem", "_cols", "_starts")

    def __init__(self, steps) -> None:
        super().__init__(steps)
        self.n_chunks = np.array([len(step) for step in steps], dtype=np.int64)
        self._starts = np.zeros(len(steps) + 1, dtype=np.int64)
        np.cumsum(self.n_chunks, out=self._starts[1:])
        self._cols = np.array(
            [
                (t.tid, c.n_instructions, c.n_accesses, c.var is not None)
                for step in steps for t, c in step
            ],
            dtype=np.int64,
        ).reshape(-1, 4).T.copy()
        n_mem = np.zeros(self._starts[-1] + 1, dtype=np.int64)
        np.cumsum((self._cols[2] > 0) & (self._cols[3] > 0), out=n_mem[1:])
        self.n_mem = np.diff(n_mem[self._starts])

    def columns(self, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step ``s``'s per-chunk ``(tids, n_ins, n_acc)``, in step order."""
        a, b = self._starts[s], self._starts[s + 1]
        cols = self._cols
        return cols[0, a:b], cols[1, a:b], cols[2, a:b]

    @property
    def nbytes(self) -> int:
        """Bytes that hold the trace's addresses (memo accounting)."""
        return sum(c.nbytes for step in self for _, c in step)


def compute_chunk(n_instructions: int, ip: SourceLoc) -> AccessChunk:
    """A chunk of pure computation (no memory traffic)."""
    return AccessChunk(
        var=None, addrs=np.empty(0, dtype=np.int64), n_instructions=n_instructions, ip=ip
    )


def sweep_chunk(
    var: Variable,
    start_elem: int,
    n_elems: int,
    ip: SourceLoc,
    *,
    elem_size: int = 8,
    stride_elems: int = 1,
    instructions_per_access: float = 4.0,
    is_store: bool = False,
) -> AffineChunk:
    """Unit/strided-stride sweep over ``n_elems`` elements of ``var``.

    The workhorse pattern: thread-partitioned loops over arrays.
    """
    if n_elems <= 0:
        raise ProgramError(f"sweep needs a positive element count, got {n_elems}")
    return AffineChunk(
        var,
        var.base + start_elem * elem_size,
        stride_elems * elem_size,
        n_elems,
        n_instructions=max(int(n_elems * instructions_per_access), n_elems),
        ip=ip,
        is_store=is_store,
    )


def indexed_chunk(
    var: Variable,
    elem_indices: np.ndarray,
    ip: SourceLoc,
    *,
    elem_size: int = 8,
    instructions_per_access: float = 4.0,
    is_store: bool = False,
) -> AccessChunk:
    """Indirect accesses ``var[idx[i]]`` (e.g. AMG's ``RAP_diag_data[A_diag_i[i]]``)."""
    idx = np.asarray(elem_indices, dtype=np.int64)
    if idx.size == 0:
        raise ProgramError("indexed chunk needs at least one index")
    addrs = var.base + idx * elem_size
    return AccessChunk(
        var=var,
        addrs=addrs,
        n_instructions=max(int(idx.size * instructions_per_access), idx.size),
        ip=ip,
        is_store=is_store,
    )
