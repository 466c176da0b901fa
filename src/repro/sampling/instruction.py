"""Instruction-stream sampling (IBS, PEBS): periodic slots with jitter.

Only the mechanisms that sample the instruction stream load this
module; the event samplers (MRK, DEAR, PEBS-LL) and Soft-IBS do not.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._hashing import numpy_random
from repro.sampling.base import periodic_positions_step

#: Jitter values a thread draws from its stream per ``integers`` call
#: (more when one chunk needs more). Each thread holds a row this wide
#: for the run, and a larger block buys no fewer values, only fewer calls.
JITTER_BLOCK = 4096


class InstructionSamplingMixin:
    """Shared logic for mechanisms that sample the instruction stream.

    Instruction slot ``s`` of a chunk is a memory access iff the Bresenham
    condition ``(s * n_acc) % n_instr < n_acc`` holds, which spreads the
    chunk's accesses uniformly through its instruction stream; the access
    index for such a slot is ``s * n_acc // n_instr``. Sampling every
    ``period``-th instruction therefore samples memory uniformly at rate
    ``n_acc / n_instr`` — matching IBS, which samples all instruction
    types and leaves software to filter (paper Section 10).
    """

    def __init__(self, period: int, **kwargs) -> None:
        super().__init__(period, **kwargs)
        #: The jitter window depends only on the period.
        self._jitter_width = min(self.period, 64)
        self._rngs: dict[int, np.random.Generator] = {}
        self._reset_jitter()

    def configure(self, machine, seed: int = 0x1B5) -> None:
        """Bind to a machine and restart every thread's jitter stream."""
        super().configure(machine, seed)
        # Hardware IBS randomizes the low bits of its period counter to
        # avoid aliasing with loop periodicity; we do the same with a
        # deterministic stream so runs stay reproducible. Each thread
        # owns an independent stream (a per-PMU counter on real
        # hardware): the draw a thread sees depends only on (seed, tid)
        # and that thread's own chunk history, never on how threads
        # interleave — the invariance the sharded engine relies on.
        self._rngs = {}
        self._reset_jitter()

    def _extra_state_digest(self):
        # Jitter-RNG states and the values drawn ahead but not yet used
        # gate future selections, so they join the fixed-point digest.
        from repro.runtime.phase import freeze_state

        return tuple(
            (
                tid, freeze_state(rng.bit_generator.state),
                self._jit_buf[
                    tid, self._jit_cur[tid] : self._jit_end[tid]
                ].tobytes(),
            )
            for tid, rng in sorted(self._rngs.items())
        )

    def _reset_jitter(self) -> None:
        # Row tid: draws taken ahead from thread tid's stream, of which
        # ``_jit_buf[tid, _jit_cur[tid]:_jit_end[tid]]`` are unread.
        # Draws are below ``_jitter_width`` <= 64, so a byte holds each.
        self._jit_buf = np.zeros((0, JITTER_BLOCK), dtype=np.uint8)
        self._jit_cur = np.zeros(0, dtype=np.int64)
        self._jit_end = np.zeros(0, dtype=np.int64)

    def _jitter(self, tids: np.ndarray, need: np.ndarray) -> np.ndarray:
        """The next ``need[r]`` jitter draws of each (distinct) thread
        ``tids[r]``, concatenated in row order, in one gather.

        A thread refills its row from its stream to
        ``max(JITTER_BLOCK, need)`` values when it runs short. Bounded
        ``integers`` draws from one PCG64 stream give the same values
        however they are split into calls, so the values equal
        per-chunk draws; refills depend only on the thread's own
        history, so chunk-by-chunk and step-wide selection consume the
        same blocks.
        """
        grow = int(tids.max()) + 1 - self._jit_cur.size
        if grow > 0:
            self._jit_buf = np.pad(self._jit_buf, ((0, grow), (0, 0)))
            self._jit_cur = np.append(self._jit_cur, np.zeros(grow, np.int64))
            self._jit_end = np.append(self._jit_end, np.zeros(grow, np.int64))
        for r in np.flatnonzero(
            self._jit_cur[tids] + need > self._jit_end[tids]
        ).tolist():
            tid = int(tids[r])
            rest = self._jit_buf[tid, self._jit_cur[tid] : self._jit_end[tid]]
            width = max(JITTER_BLOCK, int(need[r]))
            if width > self._jit_buf.shape[1]:
                self._jit_buf = np.pad(
                    self._jit_buf, ((0, 0), (0, width - self._jit_buf.shape[1]))
                )
            row = self._jit_buf[tid]
            row[: rest.size] = rest.copy()
            row[rest.size : width] = self._rng_for(tid).integers(
                0, self._jitter_width, size=width - rest.size
            )
            self._jit_cur[tid], self._jit_end[tid] = 0, width
            obs.TRACER.count("sampling.jitter.draws")
        cur = self._jit_cur[tids]
        self._jit_cur[tids] = cur + need
        starts = np.repeat(np.cumsum(need) - need - cur, need)
        return self._jit_buf[
            np.repeat(tids, need), np.arange(starts.size) - starts
        ]

    def _rng_for(self, tid: int) -> np.random.Generator:
        """Thread ``tid``'s private jitter stream (lazily spawned)."""
        rng = self._rngs.get(tid)
        if rng is None:
            # spawn_key=(tid,) is bit-identical to the tid-th child of
            # SeedSequence(seed).spawn(...) but needs no up-front count.
            random = numpy_random()
            rng = random.default_rng(
                random.SeedSequence(self._seed, spawn_key=(tid,))
            )
            self._rngs[tid] = rng
        return rng

    def _instruction_samples_step(
        self, views
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A step's instruction samples, over every chunk at once.

        One vectorized periodic selection over the step's instruction
        counts, one gather of each chunk's jitter from its thread's
        private stream (concatenated in view order, so the result is
        bit-identical to sampling chunk by chunk; see :meth:`_jitter`),
        and one Bresenham pass mapping instruction slots to access
        indices. Positions are built only
        in chunks with memory accesses: a pure-compute chunk's sample
        count and carry are closed form, O(1) however many instructions
        it runs.

        Returns ``(access_idx_cat, counts, n_positions, n_acc, n_ins)``.
        """
        tids, n_ins, n_acc = views.tids, views.n_ins, views.n_acc
        carries = self._step_carries(tids)
        # Chunks with no accesses take instruction samples but emit no
        # memory samples and draw no jitter, so positions are built for
        # memory chunks only.
        mem = n_acc > 0
        mem_pos, mem_rows, n_positions, new_carries = periodic_positions_step(
            carries, n_ins, self.period, mem
        )
        self._store_step_carries(tids, new_carries)
        if self._jitter_width > 1 and mem_pos.size:
            # mem_rows is ascending, so each thread's draws concatenated
            # in view order are its chunk-by-chunk consumption.
            rows = np.flatnonzero(mem & (n_positions > 0))
            jitter = self._jitter(tids[rows], n_positions[rows])
            mem_pos = np.maximum(mem_pos - jitter, 0)
            dedup = np.empty(mem_pos.size, dtype=bool)
            dedup[0] = True
            np.logical_or(
                mem_pos[1:] != mem_pos[:-1],
                mem_rows[1:] != mem_rows[:-1],
                out=dedup[1:],
            )
            n_before = mem_pos.size
            mem_pos = mem_pos[dedup]
            mem_rows = mem_rows[dedup]
            if mem_pos.size != n_before:
                obs.TRACER.count(
                    "sampling.samples.dropped", n_before - mem_pos.size
                )
        na = n_acc[mem_rows]
        ni = n_ins[mem_rows]
        is_mem = (mem_pos * na) % ni < na
        access_idx = (mem_pos[is_mem] * na[is_mem]) // ni[is_mem]
        counts = np.bincount(
            mem_rows[is_mem], minlength=len(views)
        ).astype(np.int64)
        return access_idx.astype(np.int64), counts, n_positions, n_acc, n_ins
