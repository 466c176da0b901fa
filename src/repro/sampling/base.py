"""Sampling mechanism base classes and shared helpers.

A mechanism observes each executed chunk and decides which accesses are
*sampled*. Selection is deterministic: events are counted with a
per-thread carry so a period-``p`` mechanism samples exactly every
``p``-th event across chunk boundaries, which both makes tests exact and
honours the paper's requirement that "memory accesses are uniformly
sampled".
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.machine.machine import Machine
from repro.runtime.chunks import AccessChunk

#: Jitter values a thread draws from its stream per ``integers`` call
#: (more when one chunk needs more).
JITTER_BLOCK = 4096


@dataclass(frozen=True)
class MechanismCapabilities:
    """What a sampling mechanism's hardware (or software) can do.

    The paper's analyses branch on these: ``measures_latency`` gates the
    lpi_NUMA metric (eqs. 2/3), ``counts_absolute_events`` selects eq. 3's
    form, ``samples_all_instructions`` distinguishes IBS-style instruction
    sampling from event sampling, ``precise_ip`` vs. skid drives the PEBS
    off-by-1 correction, and ``needs_thread_binding`` marks Soft-IBS's
    requirement for a static thread -> CPU map.
    """

    measures_latency: bool = False
    samples_all_instructions: bool = False
    event_based: bool = True
    supports_numa_events: bool = False
    counts_absolute_events: bool = False
    precise_ip: bool = True
    needs_thread_binding: bool = False
    max_sample_rate_per_sec: float | None = None


@dataclass
class StepSampleBatch:
    """Samples taken from every chunk of one execution step.

    The step-wide twin of :class:`SampleBatch`: one ``select_step`` call
    covers all chunks the engine ran in lockstep, so selection is a
    handful of array operations per *step* instead of per *chunk*.
    Per-chunk results are concatenated; ``counts``/``starts`` recover the
    chunk boundaries, and :meth:`batch_for` materializes a classic
    :class:`SampleBatch` for one chunk (compatibility/cost paths).

    Attributes
    ----------
    indices:
        Chunk-local sampled access indices, concatenated in step (view)
        order.
    counts / starts:
        Samples per chunk and the prefix offsets of each chunk's slice of
        ``indices`` (``starts`` has ``n_chunks + 1`` entries).
    n_sampled_instructions / n_events_total:
        Per-chunk arrays with the same meaning as on :class:`SampleBatch`.
    latency_captured:
        Whether latencies attached to these samples are valid (uniform
        across a step — it is a mechanism property).
    """

    indices: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    n_sampled_instructions: np.ndarray
    n_events_total: np.ndarray
    latency_captured: bool

    @property
    def n_samples(self) -> int:
        """Total sampled memory accesses across the step."""
        return int(self.indices.size)

    def batch_for(self, k: int) -> "SampleBatch":
        """The classic per-chunk :class:`SampleBatch` for chunk ``k``."""
        return SampleBatch(
            indices=self.indices[self.starts[k]:self.starts[k + 1]],
            n_sampled_instructions=int(self.n_sampled_instructions[k]),
            n_events_total=int(self.n_events_total[k]),
            latency_captured=self.latency_captured,
        )


def traced_select_step(fn):
    """Wrap a mechanism's ``select_step`` in a ``sampling``-category span.

    Every mechanism decorates its override so step selection shows up as
    ``sampling.select_step`` in traces and phase breakdowns regardless of
    which mechanism runs. When tracing is disabled the wrapper costs one
    attribute check per step.
    """

    @functools.wraps(fn)
    def wrapper(self, views):
        tr = obs.TRACER
        if not tr.enabled:
            return fn(self, views)
        tr.begin("sampling.select_step", "sampling", mech=self.name)
        try:
            return fn(self, views)
        finally:
            tr.end()

    return wrapper


def _starts_from_counts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


@dataclass
class SampleBatch:
    """Samples taken from one chunk.

    Attributes
    ----------
    indices:
        Indices into the chunk's access arrays for sampled *memory*
        accesses.
    n_sampled_instructions:
        How many instruction samples this batch represents (IBS/PEBS
        sample non-memory instructions too; those contribute to the
        lpi denominator I^s but carry no address).
    n_events_total:
        Absolute number of the mechanism's trigger events that occurred
        in the chunk (sampled or not) — the "conventional counter"
        reading that eq. 3 needs for PEBS-LL (E_NUMA) and that MRK-style
        tools use for miss counts.
    latency_captured:
        Whether latencies attached to these samples are valid.
    """

    indices: np.ndarray
    n_sampled_instructions: int
    n_events_total: int
    latency_captured: bool

    @property
    def n_samples(self) -> int:
        """Number of sampled memory accesses."""
        return int(self.indices.size)


def periodic_positions(carry: int, n_events: int, period: int) -> tuple[np.ndarray, int]:
    """Deterministic every-``period``-th selection with cross-chunk carry.

    ``carry`` is how many events have elapsed since the last sample.
    Returns the selected event positions in ``[0, n_events)`` and the new
    carry. With ``period == 1`` every event is selected.
    """
    if period <= 0:
        raise MechanismError(f"sampling period must be positive, got {period}")
    if n_events <= 0:
        return np.empty(0, dtype=np.int64), carry
    first = period - 1 - carry
    if first >= n_events:
        return np.empty(0, dtype=np.int64), carry + n_events
    positions = np.arange(first, n_events, period, dtype=np.int64)
    new_carry = n_events - 1 - int(positions[-1])
    return positions, new_carry


def _dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from a sorted array.

    Jittered sample positions are non-decreasing, but the clamp in
    ``np.maximum(positions - jitter, 0)`` can land two samples on the
    same slot near position 0, which would double-count one access.
    """
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def periodic_positions_step(
    carries: np.ndarray,
    n_events: np.ndarray,
    period: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`periodic_positions` over many (carry, events) pairs.

    Computes, for every chunk of a step at once, exactly what sequential
    per-chunk calls would: the selected event positions (concatenated in
    chunk order), how many each chunk got, and each chunk's new carry.

    Returns ``(positions_cat, rows, counts, new_carries)`` where ``rows``
    maps each concatenated position back to its chunk index. With a
    boolean ``mask``, positions and rows are built only for the masked
    chunks; counts and carries still cover every chunk (closed form).
    """
    if period <= 0:
        raise MechanismError(f"sampling period must be positive, got {period}")
    n_events = np.asarray(n_events, dtype=np.int64)
    carries = np.asarray(carries, dtype=np.int64)
    first = period - 1 - carries
    active = n_events > 0
    selected = active & (first < n_events)
    counts = np.zeros(n_events.shape, dtype=np.int64)
    counts[selected] = (n_events[selected] - first[selected] - 1) // period + 1
    new_carries = carries.copy()
    skipped = active & ~selected
    new_carries[skipped] = carries[skipped] + n_events[skipped]
    new_carries[selected] = (
        n_events[selected] - 1
        - (first[selected] + (counts[selected] - 1) * period)
    )
    built = counts if mask is None else np.where(mask, counts, 0)
    starts = _starts_from_counts(built)
    total = int(starts[-1])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, counts, new_carries
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), built)
    within = np.arange(total, dtype=np.int64) - starts[rows]
    positions = first[rows] + within * period
    return positions, rows, counts, new_carries


class SamplingMechanism(abc.ABC):
    """Base class: per-thread periodic selection plus a cost model.

    Parameters
    ----------
    period:
        Mechanism-specific sampling period (instructions for IBS/PEBS,
        trigger events for the event-based mechanisms, accesses for
        Soft-IBS).
    per_sample_cycles / per_access_cycles / instr_tax_cycles:
        Cost model: each taken sample costs ``per_sample_cycles`` (PMU
        interrupt + unwind + attribution), each executed access costs
        ``per_access_cycles`` (Soft-IBS instrumentation stubs), and each
        executed instruction costs ``instr_tax_cycles`` (always-on
        machinery such as marking hardware). Defaults are calibrated per
        mechanism so the simulated Table 2 matches the paper's overhead
        ordering; see EXPERIMENTS.md.
    """

    name: str = "base"
    capabilities: MechanismCapabilities = MechanismCapabilities()

    def __init__(
        self,
        period: int,
        *,
        per_sample_cycles: float = 3000.0,
        per_access_cycles: float = 0.0,
        instr_tax_cycles: float = 0.0,
    ) -> None:
        if period <= 0:
            raise MechanismError(f"period must be positive, got {period}")
        self.period = int(period)
        #: Hoisted constant for the instruction-sampling jitter window —
        #: it only depends on the period, so the hot select() path must
        #: not recompute it per chunk.
        self._jitter_width = min(self.period, 64)
        self.per_sample_cycles = per_sample_cycles
        self.per_access_cycles = per_access_cycles
        self.instr_tax_cycles = instr_tax_cycles
        self._carry: dict[int, int] = {}
        self._seed = 0x1B5
        self._rngs: dict[int, np.random.Generator] = {}
        self._reset_jitter()
        self.machine: Machine | None = None
        self.total_samples = 0
        self.total_events = 0

    def configure(self, machine: Machine, seed: int = 0x1B5) -> None:
        """Bind to a machine (clock rate, CPI) before a run."""
        self.machine = machine
        self._carry.clear()
        self.total_samples = 0
        self.total_events = 0
        # Hardware IBS randomizes the low bits of its period counter to
        # avoid aliasing with loop periodicity; we do the same with a
        # deterministic stream so runs stay reproducible. Each thread
        # owns an independent stream (a per-PMU counter on real
        # hardware): the draw a thread sees depends only on (seed, tid)
        # and that thread's own chunk history, never on how threads
        # interleave — the invariance the sharded engine relies on.
        self._seed = int(seed)
        self._rngs = {}
        self._reset_jitter()

    def _reset_jitter(self) -> None:
        # Row tid: draws taken ahead from thread tid's stream, of which
        # ``_jit_buf[tid, _jit_cur[tid]:_jit_end[tid]]`` are unread.
        self._jit_buf = np.zeros((0, JITTER_BLOCK), dtype=np.int64)
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
        history, so :meth:`select` and :meth:`select_step` consume the
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
            rng = np.random.default_rng(
                np.random.SeedSequence(self._seed, spawn_key=(tid,))
            )
            self._rngs[tid] = rng
        return rng

    def state_digest(self) -> tuple:
        """Hashable digest of all mutable selection state.

        Covers the per-thread periodic carries, jitter-RNG states and
        jitter values drawn ahead but not yet used, plus whatever
        :meth:`_extra_state_digest` contributes (e.g.
        MRK's rate budget). Equal digests before two iterations of the
        same chunk stream mean the mechanism selects bit-identical
        samples in both — the phase detector's exactness condition.
        Totals (``total_samples``/``total_events``) are deliberately
        excluded: they are outputs, not selection state, and are
        extrapolated separately.
        """
        from repro.runtime.phase import freeze_state

        return (
            tuple(sorted(self._carry.items())),
            tuple(
                (
                    tid, freeze_state(rng.bit_generator.state),
                    self._jit_buf[
                        tid, self._jit_cur[tid] : self._jit_end[tid]
                    ].tobytes(),
                )
                for tid, rng in sorted(self._rngs.items())
            ),
            self._extra_state_digest(),
        )

    def _extra_state_digest(self):
        """Subclass hook: extra mutable selection state (default none)."""
        return None

    def _carry_of(self, tid: int) -> int:
        return self._carry.get(tid, 0)

    def _set_carry(self, tid: int, value: int) -> None:
        self._carry[tid] = value

    @abc.abstractmethod
    def select(
        self,
        tid: int,
        chunk: AccessChunk,
        levels: np.ndarray,
        target_domains: np.ndarray,
        latencies: np.ndarray,
    ) -> SampleBatch:
        """Choose samples from one executed chunk."""

    @abc.abstractmethod
    def select_step(self, views) -> StepSampleBatch:
        """Choose samples for every chunk of one execution step at once.

        ``views`` is a sequence of per-chunk views (``ChunkView``-shaped:
        ``tid``, ``chunk``, ``levels``, ``target_domains``, ``latencies``)
        in step order; the engine guarantees each thread contributes at
        most one chunk per step, so per-thread carries never collide
        within a call. Results are exactly what sequential :meth:`select`
        calls in view order would produce — batching is a pure
        performance knob (see ``tests/test_sampling_step.py``).
        Mechanisms implement it with vectorized selection over
        step-concatenated event counts.
        """

    def cost_cycles_step(self, step: StepSampleBatch, views) -> np.ndarray:
        """Per-chunk monitoring cost for a whole step (see cost_cycles).

        Same arithmetic as per-chunk :meth:`cost_cycles`, evaluated on
        step-wide arrays; subclasses that override :meth:`cost_cycles`
        must override this too (and keep the two in exact agreement).
        """
        n_acc = getattr(views, "n_acc", None)
        if n_acc is None:
            n_acc = np.fromiter(
                (v.chunk.n_accesses for v in views), np.int64, len(views)
            )
            n_ins = np.fromiter(
                (v.chunk.n_instructions for v in views), np.int64, len(views)
            )
        else:
            n_ins = views.n_ins
        return (
            step.n_sampled_instructions * self.per_sample_cycles
            + n_acc * self.per_access_cycles
            + n_ins * self.instr_tax_cycles
        )

    def _step_carries(self, tids) -> np.ndarray:
        return np.fromiter(
            (self._carry.get(t, 0) for t in tids), np.int64, len(tids)
        )

    def _store_step_carries(self, tids, new_carries: np.ndarray) -> None:
        carry = self._carry
        for t, c in zip(tids, new_carries.tolist()):
            carry[t] = c

    def _finish_step(self, step: StepSampleBatch) -> StepSampleBatch:
        events = int(step.n_events_total.sum())
        self.total_samples += step.n_samples
        self.total_events += events
        tr = obs.TRACER
        if tr.enabled:
            tr.count("sampling.samples.selected", step.n_samples)
            tr.count("sampling.events.observed", events)
        return step

    def _empty_step(self, *, latency_captured: bool) -> StepSampleBatch:
        zeros = np.empty(0, dtype=np.int64)
        return StepSampleBatch(
            indices=zeros,
            counts=zeros.copy(),
            starts=np.zeros(1, dtype=np.int64),
            n_sampled_instructions=zeros.copy(),
            n_events_total=zeros.copy(),
            latency_captured=latency_captured,
        )

    def cost_cycles(self, batch: SampleBatch, chunk: AccessChunk) -> float:
        """Monitoring cost charged to the thread for this chunk.

        The per-sample cost applies to every *taken sample interrupt* —
        for instruction-sampling mechanisms that includes tagged
        non-memory instructions, which is exactly why IBS's overhead
        exceeds the event-based mechanisms' in Table 2 ("IBS samples all
        kinds of instructions ... which adds extra overhead").
        """
        return (
            batch.n_sampled_instructions * self.per_sample_cycles
            + chunk.n_accesses * self.per_access_cycles
            + chunk.n_instructions * self.instr_tax_cycles
        )

    def _finish(self, batch: SampleBatch) -> SampleBatch:
        self.total_samples += batch.n_samples
        self.total_events += batch.n_events_total
        tr = obs.TRACER
        if tr.enabled:
            tr.count("sampling.samples.selected", batch.n_samples)
            tr.count("sampling.events.observed", batch.n_events_total)
        return batch

    def describe(self) -> str:
        """Human-readable one-liner for tables."""
        return f"{self.name} (period {self.period})"


class EventSamplingMechanism(SamplingMechanism):
    """Every ``period``-th trigger event, counted per thread.

    A subclass names its trigger event twice, with the same meaning:
    :meth:`_event_mask` over per-access arrays (scalar :meth:`select`,
    the reference, and views without event primitives) and
    :attr:`event_primitive` — the view method (see
    ``repro.runtime.engine.ChunkView``) that returns the event indices
    directly, so a lazy view serves them from its fetch subset without
    materializing per-access arrays. A rate cap hooks in through
    :meth:`_capped` / :meth:`_cap`.
    """

    #: Name of the view method returning chunk-local event indices,
    #: called with :meth:`_event_args`.
    event_primitive: str = ""

    def _event_args(self) -> tuple:
        return ()

    @abc.abstractmethod
    def _event_mask(
        self, levels: np.ndarray, latencies: np.ndarray
    ) -> np.ndarray:
        """Which accesses are trigger events."""

    def _capped(self) -> bool:
        """Whether :meth:`_cap` thins selections (it needs latency sums)."""
        return False

    def _cap(
        self, tid: int, chosen: np.ndarray, n_instructions: int,
        lat_total: float,
    ) -> np.ndarray:
        """Thin one chunk's chosen events (``lat_total``: its latency sum)."""
        return chosen

    def _cap_step(
        self, tids: np.ndarray, chosen: np.ndarray, counts: np.ndarray,
        n_ins: np.ndarray, lat_totals: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_cap` over a step: ``(chosen, counts)`` after thinning.

        Per-chunk arrays are in view order; ``chosen`` holds each
        chunk's events back to back, ``counts[k]`` of them. A step's
        tids are distinct, so the result must equal :meth:`_cap` applied
        to each chunk with ``counts[k] > 0`` in turn.
        """
        return chosen, counts

    def select(
        self,
        tid: int,
        chunk: AccessChunk,
        levels: np.ndarray,
        target_domains: np.ndarray,
        latencies: np.ndarray,
    ) -> SampleBatch:
        event_idx = np.flatnonzero(self._event_mask(levels, latencies))
        positions, new_carry = periodic_positions(
            self._carry_of(tid), int(event_idx.size), self.period
        )
        self._set_carry(tid, new_carry)
        chosen = event_idx[positions]
        if chosen.size and self._capped():
            chosen = self._cap(
                tid, chosen, chunk.n_instructions, float(latencies.sum())
            )
        return self._finish(
            SampleBatch(
                indices=chosen.astype(np.int64),
                n_sampled_instructions=int(chosen.size),
                n_events_total=int(event_idx.size),
                latency_captured=self.capabilities.measures_latency,
            )
        )

    def _view_events(self, v) -> np.ndarray:
        prim = getattr(v, self.event_primitive, None)
        if prim is None:
            return np.flatnonzero(self._event_mask(v.levels, v.latencies))
        return prim(*self._event_args())

    def _step_events(self, views):
        """``(events_cat, ev_counts, offsets, lat_totals)`` for a step.

        Chunk-local event indices of every view, concatenated in view
        order, with per-view event counts, their prefix offsets, and —
        when capped — each view's latency sum (zero for views without
        events, which never reach :meth:`_cap`). A step's events depend
        only on its views, so they are cached on ``views.memo``: a
        retained step hands back the same :class:`StepViews` on later
        iterations, which then reuse them.
        """
        memo = getattr(views, "memo", None)
        capped = self._capped()
        key = (self.event_primitive, *self._event_args(), capped)
        got = memo.get(key) if memo is not None else None
        if got is not None:
            return got
        events = [self._view_events(v) for v in views]
        ev_counts = np.fromiter((e.size for e in events), np.int64, len(events))
        lat_totals = None
        if capped:
            lat_totals = np.zeros(len(views))
            for k in np.flatnonzero(ev_counts).tolist():
                v = views[k]
                total = getattr(v, "latency_total", None)
                lat_totals[k] = (
                    total() if total is not None
                    else float(v.latencies.sum())
                )
        got = (
            np.concatenate(events),
            ev_counts,
            _starts_from_counts(ev_counts),
            lat_totals,
        )
        if memo is not None:
            memo[key] = got
        return got

    @traced_select_step
    def select_step(self, views) -> StepSampleBatch:
        latency_captured = self.capabilities.measures_latency
        if not views:
            return self._empty_step(latency_captured=latency_captured)
        events_cat, ev_counts, offsets, lat_totals = self._step_events(views)
        tids = getattr(views, "tids", None)
        if tids is None:
            tids = [v.tid for v in views]
        carries = self._step_carries(tids)
        positions, rows, counts, new_carries = periodic_positions_step(
            carries, ev_counts, self.period
        )
        self._store_step_carries(tids, new_carries)
        chosen = events_cat[offsets[rows] + positions]
        if lat_totals is not None and chosen.size:
            n_ins = getattr(views, "n_ins", None)
            if n_ins is None:
                n_ins = np.array([v.chunk.n_instructions for v in views])
            chosen, counts = self._cap_step(
                np.asarray(tids), chosen, counts, n_ins, lat_totals
            )
        return self._finish_step(
            StepSampleBatch(
                indices=chosen,
                counts=counts,
                starts=_starts_from_counts(counts),
                n_sampled_instructions=counts.copy(),
                n_events_total=ev_counts,
                latency_captured=latency_captured,
            )
        )


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

    def _instruction_samples(
        self, tid: int, chunk: AccessChunk
    ) -> tuple[np.ndarray, int]:
        """Return (sampled access indices, number of instruction samples)."""
        positions, new_carry = periodic_positions(
            self._carry_of(tid), chunk.n_instructions, self.period
        )
        self._set_carry(tid, new_carry)
        n_positions = int(positions.size)
        if n_positions == 0 or chunk.n_accesses == 0:
            return np.empty(0, dtype=np.int64), n_positions
        # Randomize low bits of each sample position (as hardware does) so
        # the period never aliases with the chunk's access/instruction
        # interleave; carry accounting stays on the unjittered grid.
        if self._jitter_width > 1:
            jitter = self._jitter(
                np.array([tid], dtype=np.int64),
                np.array([n_positions], dtype=np.int64),
            )
            positions = np.maximum(positions - jitter, 0)
            deduped = _dedupe_sorted(positions)
            if deduped.size != positions.size:
                obs.TRACER.count(
                    "sampling.samples.dropped",
                    positions.size - deduped.size,
                )
            positions = deduped
        n_acc = chunk.n_accesses
        n_ins = chunk.n_instructions
        is_mem = (positions * n_acc) % n_ins < n_acc
        access_idx = positions[is_mem] * n_acc // n_ins
        return access_idx.astype(np.int64), n_positions

    def _instruction_samples_step(
        self, views
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Step-wide :meth:`_instruction_samples` over every chunk at once.

        One vectorized periodic selection over the step's instruction
        counts, one gather of each chunk's jitter from its thread's
        private stream (concatenated in view order, so the result is
        bit-identical to per-chunk :meth:`_instruction_samples` calls;
        see :meth:`_jitter`), and one Bresenham pass mapping
        instruction slots to access indices. Positions are built only
        in chunks with memory accesses: a pure-compute chunk's sample
        count and carry are closed form, O(1) however many instructions
        it runs.

        Returns ``(access_idx_cat, counts, n_positions, n_acc, n_ins)``.
        """
        n = len(views)
        n_ins = getattr(views, "n_ins", None)
        if n_ins is None:
            n_ins = np.fromiter(
                (v.chunk.n_instructions for v in views), np.int64, n
            )
            n_acc = np.fromiter(
                (v.chunk.n_accesses for v in views), np.int64, n
            )
            tids = [v.tid for v in views]
        else:
            # Engine step: its StepViews carries the per-chunk counts
            # pre-extracted (see repro.runtime.memo).
            n_acc = views.n_acc
            tids = views.tids
        carries = self._step_carries(tids)
        # Chunks with no accesses take instruction samples but emit no
        # memory samples — and, like the scalar path, draw no jitter —
        # so positions are built for memory chunks only.
        mem = n_acc > 0
        mem_pos, mem_rows, n_positions, new_carries = periodic_positions_step(
            carries, n_ins, self.period, mem
        )
        self._store_step_carries(tids, new_carries)
        if self._jitter_width > 1 and mem_pos.size:
            # mem_rows is ascending, so each thread's draws concatenated
            # in view order reproduce the scalar path's consumption.
            rows = np.flatnonzero(mem & (n_positions > 0))
            jitter = self._jitter(
                np.asarray(tids, dtype=np.int64)[rows], n_positions[rows]
            )
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
        counts = np.bincount(mem_rows[is_mem], minlength=n).astype(np.int64)
        return access_idx.astype(np.int64), counts, n_positions, n_acc, n_ins
