"""Access chunks: the vectorized unit of simulated execution.

A chunk represents the memory traffic and instruction count of one
array-reference site executed over many loop iterations — e.g. "this
thread's slice of the sweep over ``z`` in ``CalcPosition``". Keeping
thousands of accesses per chunk lets the whole simulator run as NumPy
array operations (see the hpc-parallel guides: vectorize the hot loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProgramError
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import Variable


@dataclass
class AccessChunk:
    """Memory accesses plus surrounding instructions for one access site.

    Attributes
    ----------
    var:
        The variable the addresses fall in (``None`` for pure-compute
        chunks with no memory traffic).
    addrs:
        Absolute byte addresses, in program order.
    n_instructions:
        Total instructions this chunk represents, *including* the memory
        instructions. Must be >= ``len(addrs)``.
    ip:
        Precise source coordinate of the access site (code-centric
        attribution target).
    is_store:
        Whether the accesses are writes (first touch by a store is what
        binds pages in real systems; the simulator binds on either, like
        Linux does on read faults too).
    """

    var: Variable | None
    addrs: np.ndarray
    n_instructions: int
    ip: SourceLoc
    is_store: bool = False

    def __post_init__(self) -> None:
        self.addrs = np.ascontiguousarray(np.asarray(self.addrs, dtype=np.int64))
        if self.n_instructions < len(self.addrs):
            raise ProgramError(
                f"chunk at {self.ip} has {len(self.addrs)} accesses but only "
                f"{self.n_instructions} instructions"
            )
        if self.var is not None and self.addrs.size:
            lo, hi = int(self.addrs.min()), int(self.addrs.max())
            if lo < self.var.base or hi >= self.var.end:
                raise ProgramError(
                    f"chunk at {self.ip} accesses [{lo:#x}, {hi:#x}] outside "
                    f"variable {self.var.name} [{self.var.base:#x}, {self.var.end:#x})"
                )

    @property
    def n_accesses(self) -> int:
        """Number of memory accesses in the chunk."""
        return int(self.addrs.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by this chunk's address array (memo accounting)."""
        return int(self.addrs.nbytes)


def steps_nbytes(steps) -> int:
    """Total address bytes across a region's pre-drawn step list.

    Used by the engine's iteration memo to account the cached chunk
    trace (``steps`` is a list of ``[(thread, chunk), ...]`` step
    lists).
    """
    return sum(c.nbytes for step in steps for _, c in step)


class StepTrace(list):
    """A pre-drawn iteration trace with a flat columnar address plane.

    Subclasses the plain step list — each element is the usual
    ``[(thread, chunk), ...]`` lockstep step, so every existing consumer
    (memo store, page phase, monitors) iterates it unchanged — and adds
    one flat column: ``addrs_cat``, the concatenated addresses of every
    memory chunk in step-major order, with ``step_off[s] : step_off[s+1]``
    delimiting step ``s``'s slice; ``n_chunks[s]`` / ``n_mem[s]`` count
    step ``s``'s chunks and memory chunks (its access total is the slice
    length). After :func:`columnarize_steps` each
    chunk's ``.addrs`` is a zero-copy view into this buffer, so the
    classify kernels consume ``step_addrs(s)`` directly instead of
    re-concatenating per step, and the whole trace can live in one
    shared-memory segment (the sharded engine allocates the buffer from
    its arena; see :mod:`repro.runtime.arena`).
    """

    __slots__ = ("addrs_cat", "step_off", "n_chunks", "n_mem")

    def __init__(
        self, steps, addrs_cat: np.ndarray, step_off: np.ndarray,
        n_mem: np.ndarray,
    ):
        super().__init__(steps)
        self.addrs_cat = addrs_cat
        self.step_off = step_off
        self.n_chunks = np.array([len(step) for step in steps], dtype=np.int64)
        self.n_mem = n_mem

    def step_addrs(self, s: int) -> np.ndarray | None:
        """Step ``s``'s concatenated mem-chunk addresses (mem order)."""
        if s >= len(self):
            return None
        return self.addrs_cat[self.step_off[s] : self.step_off[s + 1]]

    @property
    def nbytes(self) -> int:
        return int(self.addrs_cat.nbytes + self.step_off.nbytes)


def columnarize_steps(steps, alloc=None) -> StepTrace:
    """Pack a pre-drawn step list into a :class:`StepTrace`.

    Copies every memory chunk's addresses — chunks with a variable and
    at least one access, in step order then step position order, exactly
    the order the engine builds a step's ``mem_idx`` in — into one flat
    int64 buffer and rewrites each ``chunk.addrs`` as a view of its
    slice. Values are unchanged, so classification is bit-identical;
    only the memory layout (and the resulting zero-copy step slices)
    differs. ``alloc(n)`` optionally supplies the destination buffer
    (``n`` int64 elements) — the sharded engine passes a shared-memory
    allocator so the trace plane is segment-backed.
    """
    mem_chunks: list = []
    step_off = np.zeros(len(steps) + 1, dtype=np.int64)
    n_mem = np.zeros(len(steps), dtype=np.int64)
    total = 0
    for s, step in enumerate(steps):
        k = len(mem_chunks)
        for _, chunk in step:
            if chunk.var is None or not chunk.n_accesses:
                continue
            mem_chunks.append(chunk)
            total += chunk.n_accesses
        n_mem[s] = len(mem_chunks) - k
        step_off[s + 1] = total
    buf = alloc(total) if alloc is not None else np.empty(total, dtype=np.int64)
    pos = 0
    for chunk in mem_chunks:
        n = chunk.addrs.size
        buf[pos : pos + n] = chunk.addrs
        chunk.addrs = buf[pos : pos + n]
        pos += n
    return StepTrace(steps, buf, step_off, n_mem)


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
) -> AccessChunk:
    """Unit/strided-stride sweep over ``n_elems`` elements of ``var``.

    The workhorse pattern: thread-partitioned loops over arrays.
    """
    if n_elems <= 0:
        raise ProgramError(f"sweep needs a positive element count, got {n_elems}")
    idx = start_elem + stride_elems * np.arange(n_elems, dtype=np.int64)
    addrs = var.base + idx * elem_size
    return AccessChunk(
        var=var,
        addrs=addrs,
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
